package netlist

// SampleBLIF exposes the parser fixture to the external-package tests.
var SampleBLIF = sampleBLIF
