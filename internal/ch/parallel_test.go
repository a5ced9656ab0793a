package ch

import (
	"bytes"
	"testing"

	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/traffic"
)

// serializeAll captures everything observable about an index: the public
// structure bytes and every silo's weight shard.
func serializeAll(t *testing.T, x *Index) [][]byte {
	t.Helper()
	var pub bytes.Buffer
	if err := x.WritePublic(&pub); err != nil {
		t.Fatal(err)
	}
	out := [][]byte{pub.Bytes()}
	for p := 0; p < len(x.siloW); p++ {
		var b bytes.Buffer
		if err := x.WriteSiloWeights(p, &b); err != nil {
			t.Fatal(err)
		}
		out = append(out, b.Bytes())
	}
	return out
}

func buildVariant(t *testing.T, g *graph.Graph, w0 graph.Weights, sets []graph.Weights, seed uint64, prm Params) *Index {
	t.Helper()
	f, err := fed.New(g, w0, sets, mpc.Params{Mode: mpc.ModeIdeal, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	x, err := BuildWith(f, prm)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestParallelBuildEquivalence is the determinism contract of the parallel
// builder: for any number of contractions in flight, batched or not, the
// built index — ordering, shortcut set, skip records, every silo's partial
// weights — is byte-for-byte the sequential build's, and it spends exactly
// as many Fed-SACs.
func TestParallelBuildEquivalence(t *testing.T) {
	type network struct {
		name string
		g    *graph.Graph
		w0   graph.Weights
	}
	gr, wr := graph.GenerateRoadLike(180, 21)
	gg, wg := graph.GenerateGrid(7, 8, 33)
	for _, net := range []network{{"road", gr, wr}, {"grid", gg, wg}} {
		t.Run(net.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 2, 3} {
				sets := traffic.SiloWeights(net.w0, 3, traffic.Moderate, seed)
				ref := buildVariant(t, net.g, net.w0, sets, seed, Params{Workers: 1})
				refBytes := serializeAll(t, ref)
				for _, prm := range []Params{
					{Workers: 3},
					{Workers: 8},
					{Workers: 64},
					{Workers: 1, NoBatch: true},
					{Workers: 8, NoBatch: true},
				} {
					x := buildVariant(t, net.g, net.w0, sets, seed, prm)
					if got, want := x.NumShortcuts(), ref.NumShortcuts(); got != want {
						t.Fatalf("seed %d workers=%d noBatch=%v: %d shortcuts, sequential build has %d",
							seed, prm.Workers, prm.NoBatch, got, want)
					}
					if got, want := x.BuildStatistics().SAC.Compares, ref.BuildStatistics().SAC.Compares; got != want {
						t.Fatalf("seed %d workers=%d noBatch=%v: %d Fed-SACs, sequential build spent %d",
							seed, prm.Workers, prm.NoBatch, got, want)
					}
					for v := 0; v < net.g.NumVertices(); v++ {
						if x.Rank(graph.Vertex(v)) != ref.Rank(graph.Vertex(v)) {
							t.Fatalf("seed %d workers=%d: rank of vertex %d differs", seed, prm.Workers, v)
						}
					}
					for i, b := range serializeAll(t, x) {
						if !bytes.Equal(b, refBytes[i]) {
							part := "public structure"
							if i > 0 {
								part = "silo weight shard"
							}
							t.Fatalf("seed %d workers=%d noBatch=%v: %s differs from sequential build",
								seed, prm.Workers, prm.NoBatch, part)
						}
					}
				}
			}
		})
	}
}

// TestParallelBuildRepeatable: two runs with identical inputs and the same
// worker count produce identical bytes (no map-iteration or scheduling order
// leaks into the result).
func TestParallelBuildRepeatable(t *testing.T) {
	g, w0 := graph.GenerateRoadLike(150, 7)
	sets := traffic.SiloWeights(w0, 4, traffic.Heavy, 9)
	a := serializeAll(t, buildVariant(t, g, w0, sets, 5, Params{Workers: 6}))
	b := serializeAll(t, buildVariant(t, g, w0, sets, 5, Params{Workers: 6}))
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("part %d differs between two identical parallel builds", i)
		}
	}
}

// TestBuildCombinerRoundsDeterministic: the Fed-SACs of the contractions in
// flight share one CompareBatch per step, and the proposals active at each
// step depend on the set order alone. So two builds at one width spend
// identical MPC rounds, and a wider build never spends more rounds than a
// narrower one — while every width spends the same Fed-SACs.
func TestBuildCombinerRoundsDeterministic(t *testing.T) {
	g, w0 := graph.GenerateRoadLike(220, 23)
	sets := traffic.SiloWeights(w0, 3, traffic.Moderate, 24)
	var prevRounds, compares int64
	for i, width := range []int{1, 2, 3, 8, 16, 64} {
		a := buildVariant(t, g, w0, sets, 25, Params{Workers: width}).BuildStatistics()
		b := buildVariant(t, g, w0, sets, 25, Params{Workers: width}).BuildStatistics()
		if a.SAC.Rounds != b.SAC.Rounds {
			t.Fatalf("width %d: two identical builds spent %d and %d MPC rounds", width, a.SAC.Rounds, b.SAC.Rounds)
		}
		if i == 0 {
			compares = a.SAC.Compares
		} else {
			if a.SAC.Rounds > prevRounds {
				t.Fatalf("width %d spent %d MPC rounds, more than the narrower build's %d", width, a.SAC.Rounds, prevRounds)
			}
			if a.SAC.Compares != compares {
				t.Fatalf("width %d spent %d Fed-SACs, width 1 spent %d", width, a.SAC.Compares, compares)
			}
		}
		prevRounds = a.SAC.Rounds
	}
	seq := buildVariant(t, g, w0, sets, 25, Params{Workers: 1}).BuildStatistics().SAC.Rounds
	if prevRounds*2 > seq {
		t.Fatalf("width 64 spent %d MPC rounds, not under half of the sequential build's %d", prevRounds, seq)
	}
}

// TestParallelBuildStats sanity-checks the new pipeline statistics: multiple
// vertices per round, and batching accounted as saved MPC rounds.
func TestParallelBuildStats(t *testing.T) {
	g, w0 := graph.GenerateRoadLike(200, 11)
	sets := traffic.SiloWeights(w0, 3, traffic.Moderate, 12)
	x := buildVariant(t, g, w0, sets, 13, Params{Workers: 4})
	st := x.BuildStatistics()
	if st.Workers != 4 {
		t.Fatalf("Workers = %d, want 4", st.Workers)
	}
	if st.Rounds <= 0 || st.Rounds >= g.NumVertices() {
		t.Fatalf("Rounds = %d, want within (0,%d): independent sets should batch vertices", st.Rounds, g.NumVertices())
	}
	if st.MaxRoundWidth < 2 {
		t.Fatalf("MaxRoundWidth = %d, want >= 2", st.MaxRoundWidth)
	}
	if st.AvgRoundWidth <= 1 {
		t.Fatalf("AvgRoundWidth = %v, want > 1", st.AvgRoundWidth)
	}
	if st.RoundsSaved <= 0 {
		t.Fatalf("RoundsSaved = %d, want > 0 with batching on", st.RoundsSaved)
	}
	if st.SAC.Rounds+st.RoundsSaved != st.SAC.Compares*int64(mpc.RoundsPerCompare) {
		t.Fatalf("round accounting inconsistent: %d rounds + %d saved != %d compares × %d",
			st.SAC.Rounds, st.RoundsSaved, st.SAC.Compares, mpc.RoundsPerCompare)
	}

	noBatch := buildVariant(t, g, w0, sets, 13, Params{Workers: 4, NoBatch: true})
	if s := noBatch.BuildStatistics().RoundsSaved; s != 0 {
		t.Fatalf("NoBatch build reports %d rounds saved, want 0", s)
	}
	if noBatch.BuildStatistics().SAC.Rounds <= st.SAC.Rounds {
		t.Fatalf("batched build should pay fewer MPC rounds: batched %d, unbatched %d",
			st.SAC.Rounds, noBatch.BuildStatistics().SAC.Rounds)
	}
}
