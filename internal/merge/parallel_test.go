package merge

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/anneal"
	"repro/internal/lutnet"
)

// TestMergeMultiStartDeterministic: a multi-start combined placement must
// equal the best single start under the (cost, seed) tiebreak.
func TestMergeMultiStartDeterministic(t *testing.T) {
	modes := similarPair(t)
	a := archFor(modes)
	const starts = 3
	var singles []*Result
	costs := make([]float64, starts)
	seeds := make([]int64, starts)
	for i := 0; i < starts; i++ {
		seeds[i] = 9 + int64(i)*anneal.StartSeedStride
		res, err := CombinedPlace("ms", modes, a, Options{Seed: seeds[i], Effort: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		singles = append(singles, res)
		costs[i] = res.Cost
	}
	want := singles[anneal.BestStart(costs, seeds)]
	res, err := CombinedPlace("ms", modes, a, Options{Seed: 9, Effort: 0.2, Starts: starts})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, res) {
		t.Fatalf("multi-start differs from best single start (cost %v vs %v)", res.Cost, want.Cost)
	}
}

// TestMergeEvalSlotMatchesApplySlot pins the frozen-evaluation contract
// down move by move under both objectives: EvalSlot's read-only delta
// must equal applyMove's live delta bit-identically.
func TestMergeEvalSlotMatchesApplySlot(t *testing.T) {
	modes := []*lutnet.Circuit{
		randomCircuit(t, 50, 30),
		randomCircuit(t, 51, 30),
		randomCircuit(t, 52, 30),
	}
	a := archFor(modes)
	for _, obj := range []Objective{WireLength, EdgeMatch} {
		rng := rand.New(rand.NewSource(14))
		st, err := newState(modes, a, obj, rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		st.SetupBatch(1)
		for i := 0; i < 3000; i++ {
			rlim := 1 + rng.Float64()*float64(a.Width+a.Height)
			if !st.Propose(rng, rlim, 0) {
				continue
			}
			frozen := st.EvalSlot(0)
			live := st.ApplySlot(0)
			if frozen != live {
				t.Fatalf("%v step %d: frozen delta %v != live delta %v", obj, i, frozen, live)
			}
			if rng.Intn(2) == 0 {
				st.Undo()
			}
		}
	}
}

// TestMergeBatchAccountingMatchesRecompute extends the incremental
// exact-equality contract to the batched commit/requeue path: after
// EVERY batch commit cycle of a real combined-placement anneal,
// each maintained position cost must equal a from-scratch costAt. The
// run must also exercise the conflict-requeue path.
func TestMergeBatchAccountingMatchesRecompute(t *testing.T) {
	modes := []*lutnet.Circuit{
		randomCircuit(t, 50, 30),
		randomCircuit(t, 51, 30),
		randomCircuit(t, 52, 30),
	}
	a := archFor(modes)
	rng := rand.New(rand.NewSource(15))
	st, err := newState(modes, a, WireLength, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	nCells := 0
	for _, mi := range st.modes {
		nCells += mi.numCells()
	}
	batch := 0
	stats := anneal.Run(st, anneal.Config{
		Effort: 0.2, Span: a.Width + a.Height,
		Cells: nCells, Nets: st.numNets(),
		AfterBatch: func() {
			batch++
			checkPosCosts(t, st, batch)
		},
	}, rng)
	if stats.Batches == 0 || batch != stats.Batches {
		t.Fatalf("AfterBatch ran %d times for %d batches", batch, stats.Batches)
	}
	if stats.Requeued == 0 {
		t.Fatal("anneal never exercised the conflict-requeue path")
	}
}
