package netlist_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/gen/firgen"
	"repro/internal/gen/mcncgen"
	"repro/internal/gen/regexgen"
	"repro/internal/netlist"
)

// FuzzReadBLIF feeds arbitrary text to the BLIF parser, the first decoder
// every compile request's modes pass through. ReadBLIF must never panic,
// and whatever it accepts must survive WriteBLIF → ReadBLIF with the same
// content hash, since request keys are derived from that hash.
//
// The corpus is seeded with the parser test fixtures and one design of
// each generator suite mmgen writes. Run with
//
//	go test -run '^$' -fuzz FuzzReadBLIF -fuzztime 30s ./internal/netlist/
func FuzzReadBLIF(f *testing.F) {
	f.Add(netlist.SampleBLIF)
	f.Add(".model m\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n")
	f.Add(".model m\n.outputs y\n.names y\n1\n.end\n")
	f.Add(".model m\n.inputs a b\n.outputs y\n.names a b y\n00 0\n.end\n")
	for _, n := range fuzzSeedDesigns(f) {
		var buf bytes.Buffer
		if err := netlist.WriteBLIF(&buf, n); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := netlist.ReadBLIF(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := netlist.WriteBLIF(&buf, n); err != nil {
			t.Fatalf("WriteBLIF of a parsed netlist: %v", err)
		}
		back, err := netlist.ReadBLIF(&buf)
		if err != nil {
			t.Fatalf("re-reading written BLIF: %v\n%s", err, buf.String())
		}
		if codec.HashNetlist(n) != codec.HashNetlist(back) {
			t.Fatalf("round trip changed the netlist hash\n%s", buf.String())
		}
	})
}

// fuzzSeedDesigns generates one design of each mmgen suite.
func fuzzSeedDesigns(f *testing.F) []*netlist.Netlist {
	f.Helper()
	rule := regexgen.BleedingEdgeRules()[0]
	re, err := regexgen.Generate(rule.Name, rule.Pattern, regexgen.Options{})
	if err != nil {
		f.Fatal(err)
	}
	spec := firgen.DefaultSpec(firgen.LowPass, 0)
	fir, err := firgen.Generate("lp0", spec, firgen.Design(spec))
	if err != nil {
		f.Fatal(err)
	}
	mcnc, err := mcncgen.Generate(mcncgen.Suite()[0])
	if err != nil {
		f.Fatal(err)
	}
	return []*netlist.Netlist{re, fir, mcnc}
}
