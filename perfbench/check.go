package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/bitstream"
	"repro/internal/flow"
	"repro/internal/lutnet"
	"repro/internal/netlist"
	"repro/internal/service"
)

// simCycles is the number of seeded input vectors each decoded MDR mode
// is simulated on.
const simCycles = 64

// refs memoises, by BLIF text, the parsed input netlist and its mapped
// circuit: the references the correctness check simulates against and
// assembles bitstreams for.
type refs map[string]*ref

type ref struct {
	nl     *netlist.Netlist
	mapped *lutnet.Circuit
}

func (r refs) get(blif string) (*ref, error) {
	if x, ok := r[blif]; ok {
		return x, nil
	}
	nl, err := netlist.ReadBLIF(strings.NewReader(blif))
	if err != nil {
		return nil, err
	}
	mapped, err := flow.MapModes([]*netlist.Netlist{nl}, flow.Config{})
	if err != nil {
		return nil, err
	}
	x := &ref{nl: nl, mapped: mapped[0]}
	r[blif] = x
	return x, nil
}

// checkCompile verifies one live compile outside the timed region: the
// DCS results are error-free and parameterise no more routing bits than
// the region has, and every MDR mode's bitstream, assembled and decoded
// back, simulates like the input BLIF.
func checkCompile(rs refs, g *group, res *service.Result, cmp *flow.Comparison, seed int64) error {
	switch {
	case res == nil || cmp == nil:
		return fmt.Errorf("no live compile result")
	case res.Error != "":
		return fmt.Errorf("result error %q", res.Error)
	case res.Region == nil || res.DCS == nil || res.MDR == nil:
		return fmt.Errorf("result incomplete")
	case res.DCS.ParamRoutingBits > res.Region.RoutingBits:
		return fmt.Errorf("DCS parameterises %d of %d routing bits", res.DCS.ParamRoutingBits, res.Region.RoutingBits)
	}
	total := cmp.Region.Graph.NumRoutingBits
	for _, d := range []*flow.DCSResult{cmp.EdgeMatch, cmp.WireLen} {
		if d == nil || d.TRoute == nil || d.TRoute.ParamRoutingBits > total {
			return fmt.Errorf("a DCS objective is missing or parameterises more than %d routing bits", total)
		}
	}
	gr := cmp.Region.Graph
	for m, pm := range cmp.MDR.PerMode {
		rf, err := rs.get(g.blifs[m])
		if err != nil {
			return fmt.Errorf("reference mode %d: %w", m, err)
		}
		bits, err := bitstream.Assemble(gr, rf.mapped, pm.Cells, pm.Placement, pm.Nets, pm.Routing)
		if err != nil {
			return fmt.Errorf("MDR mode %d: assemble: %w", m, err)
		}
		names, err := bitstream.CircuitPadNames(gr, rf.mapped, pm.Cells, pm.Placement)
		if err != nil {
			return fmt.Errorf("MDR mode %d: pad names: %w", m, err)
		}
		dec, err := bitstream.Decode(gr, bits, names)
		if err != nil {
			return fmt.Errorf("MDR mode %d: decode: %w", m, err)
		}
		if err := simulateEqual(rf.nl, dec, seed+int64(m)); err != nil {
			return fmt.Errorf("MDR mode %d: %w", m, err)
		}
	}
	return nil
}

// simulateEqual steps the input netlist and a decoded circuit on the same
// seeded vectors and compares every output.
func simulateEqual(ref *netlist.Netlist, dec *lutnet.Circuit, seed int64) error {
	sa := netlist.NewSimulator(ref)
	sb, err := lutnet.NewSimulator(dec)
	if err != nil {
		return fmt.Errorf("decoded circuit: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	names := sa.InputNames()
	for cyc := 0; cyc < simCycles; cyc++ {
		in := make(map[string]bool, len(names))
		for _, nm := range names {
			in[nm] = rng.Intn(2) == 0
		}
		oa, ob := sa.Step(in), sb.Step(in)
		for k, v := range oa {
			got, ok := ob[k]
			if !ok || got != v {
				return fmt.Errorf("cycle %d output %s: decoded bitstream gives %v, BLIF gives %v", cyc, k, got, v)
			}
		}
	}
	return nil
}

// canonical is a result's JSON with its wall-clock timings removed: the
// bytes the never-perturb and warm-identity checks compare.
func canonical(res *service.Result) []byte {
	c := *res
	c.Timings = nil
	b, err := json.Marshal(&c)
	if err != nil {
		panic(err) // Result holds only JSON-safe fields
	}
	return b
}

// canonicalBody is canonical for an HTTP response body.
func canonicalBody(body []byte) ([]byte, error) {
	var res service.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, err
	}
	return canonical(&res), nil
}
