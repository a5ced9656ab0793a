package ch

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/traffic"
)

func customizeFederation(t *testing.T, g *graph.Graph, w0 graph.Weights, seed uint64) *fed.Federation {
	t.Helper()
	sets := traffic.SiloWeights(w0, 3, traffic.Moderate, seed)
	f, err := fed.New(g, w0, sets, mpc.Params{Mode: mpc.ModeIdeal, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// jiggleWeights re-samples the silo weights of a random arc subset,
// returning the changed arcs.
func jiggleWeights(f *fed.Federation, rng *rand.Rand, frac float64) []graph.Arc {
	g := f.Graph()
	num := int(frac * float64(g.NumArcs()))
	if num < 1 {
		num = 1
	}
	changed := make([]graph.Arc, 0, num)
	for _, ai := range rng.Perm(g.NumArcs())[:num] {
		a := graph.Arc(ai)
		changed = append(changed, a)
		for p := 0; p < f.P(); p++ {
			factor := 0.6 + rng.Float64()*1.8
			nw := int64(float64(f.StaticWeights()[a]) * factor)
			if nw < 1 {
				nw = 1
			}
			f.Silo(p).SetWeight(a, nw)
		}
	}
	return changed
}

func checkExactDistances(t *testing.T, f *fed.Federation, x *Index, trials int, seed uint64, tag string) {
	t.Helper()
	g := f.Graph()
	joint := f.JointWeights()
	rng := rand.New(rand.NewPCG(seed, seed))
	for trial := 0; trial < trials; trial++ {
		s := graph.Vertex(rng.IntN(g.NumVertices()))
		tt := graph.Vertex(rng.IntN(g.NumVertices()))
		want, _ := graph.DijkstraTo(g, joint, s, tt)
		if got := chQueryJoint(x, s, tt); got != want {
			t.Fatalf("%s: trial %d: dist(%d,%d) = %d, want %d", tag, trial, s, tt, got, want)
		}
	}
}

func TestCustomizeMatchesDijkstra(t *testing.T) {
	g, w0 := graph.GenerateGrid(9, 9, 51)
	f := customizeFederation(t, g, w0, 52)
	sk, err := BuildSkeleton(g, w0, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if sk.NumShortcuts() == 0 {
		t.Fatal("skeleton has no shortcuts")
	}
	x, err := Customize(f, sk)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Customized() || x.Skeleton() != sk {
		t.Fatal("customized index does not report its skeleton")
	}
	st := x.BuildStatistics()
	if !st.Customized || st.Levels <= 0 {
		t.Fatalf("customize stats not populated: %+v", st)
	}
	checkExactDistances(t, f, x, 60, 53, "grid customize")
	checkShortcutInvariants(t, f, x)
}

func TestCustomizeOnRoadLikeNetwork(t *testing.T) {
	g, w0 := graph.GenerateRoadLike(350, 55)
	f := customizeFederation(t, g, w0, 56)
	sk, err := BuildSkeleton(g, w0, Params{})
	if err != nil {
		t.Fatal(err)
	}
	x, err := Customize(f, sk)
	if err != nil {
		t.Fatal(err)
	}
	checkExactDistances(t, f, x, 40, 57, "roadlike customize")
	checkShortcutInvariants(t, f, x)
}

func TestCustomizeDegreeOrdering(t *testing.T) {
	g, w0 := graph.GenerateGrid(7, 7, 58)
	f := customizeFederation(t, g, w0, 59)
	sk, err := BuildSkeleton(g, w0, Params{Ordering: OrderDegree})
	if err != nil {
		t.Fatal(err)
	}
	x, err := Customize(f, sk)
	if err != nil {
		t.Fatal(err)
	}
	checkExactDistances(t, f, x, 40, 60, "degree customize")
}

func TestBuildSkeletonRejectsUnknownOrdering(t *testing.T) {
	g, w0 := graph.GenerateGrid(4, 4, 61)
	if _, err := BuildSkeleton(g, w0, Params{Ordering: Ordering("bogus")}); err == nil {
		t.Fatal("unknown ordering accepted")
	}
}

// TestCustomizeDeterministicAcrossWorkersAndBatching: the customized index
// must be identical — winners, children, every partial weight — for every
// worker count and batching mode.
func TestCustomizeDeterministicAcrossWorkersAndBatching(t *testing.T) {
	g, w0 := graph.GenerateGrid(8, 8, 62)
	sk, err := BuildSkeleton(g, w0, Params{})
	if err != nil {
		t.Fatal(err)
	}
	variants := []Params{
		{Workers: 1},
		{Workers: 4},
		{Workers: 3, NoBatch: true},
	}
	var ref *Index
	for vi, prm := range variants {
		f := customizeFederation(t, g, w0, 63) // same seed -> same silo weights
		x, err := CustomizeWith(f, sk, prm)
		if err != nil {
			t.Fatal(err)
		}
		if vi == 0 {
			ref = x
			continue
		}
		if len(x.childA) != len(ref.childA) {
			t.Fatalf("variant %d: arc count differs", vi)
		}
		for a := range x.childA {
			if x.childA[a] != ref.childA[a] || x.childB[a] != ref.childB[a] {
				t.Fatalf("variant %d: children of arc %d differ", vi, a)
			}
		}
		for p := range x.siloW {
			for a := range x.siloW[p] {
				if x.siloW[p][a] != ref.siloW[p][a] {
					t.Fatalf("variant %d: silo %d weight of arc %d differs", vi, p, a)
				}
			}
		}
		for gi := range x.custWinner {
			if x.custWinner[gi] != ref.custWinner[gi] {
				t.Fatalf("variant %d: winner of group %d differs", vi, gi)
			}
		}
	}
}

// TestCustomizeAgreesWithFullBuild: distances through a customized index and
// through a from-scratch witness-pruned build at the same weights must be
// byte-identical.
func TestCustomizeAgreesWithFullBuild(t *testing.T) {
	g, w0 := graph.GenerateGrid(8, 8, 64)
	f := customizeFederation(t, g, w0, 65)
	sk, err := BuildSkeleton(g, w0, Params{})
	if err != nil {
		t.Fatal(err)
	}
	cust, err := Customize(f, sk)
	if err != nil {
		t.Fatal(err)
	}
	f2 := customizeFederation(t, g, w0, 65)
	built, err := Build(f2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(66, 66))
	for trial := 0; trial < 80; trial++ {
		s := graph.Vertex(rng.IntN(g.NumVertices()))
		tt := graph.Vertex(rng.IntN(g.NumVertices()))
		if a, b := chQueryJoint(cust, s, tt), chQueryJoint(built, s, tt); a != b {
			t.Fatalf("dist(%d,%d): customized %d != built %d", s, tt, a, b)
		}
	}
}

// TestCustomizeRoundFrugality: re-customizing after a traffic change must
// cost well under a quarter of the sequential batched build's MPC rounds —
// the whole point of the topology/weight split (benchgate enforces the same
// bound on CAL-S against the same workers=1 build). A build at the default
// width coalesces its contractions' Fed-SACs and is compared in benchgate's
// report-only line instead.
func TestCustomizeRoundFrugality(t *testing.T) {
	g, w0 := graph.GenerateGrid(10, 10, 67)
	f := customizeFederation(t, g, w0, 68)
	built, err := BuildWith(f, Params{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	buildRounds := built.BuildStatistics().SAC.Rounds
	sk, err := BuildSkeleton(g, w0, Params{})
	if err != nil {
		t.Fatal(err)
	}
	f2 := customizeFederation(t, g, w0, 68)
	cust, err := Customize(f2, sk)
	if err != nil {
		t.Fatal(err)
	}
	custRounds := cust.BuildStatistics().SAC.Rounds
	if custRounds <= 0 {
		t.Fatal("customization used no MPC rounds")
	}
	if 4*custRounds >= buildRounds {
		t.Fatalf("customize rounds %d not under 25%% of build rounds %d", custRounds, buildRounds)
	}
}

// TestCustomizedUpdateInPlace: dynamic updates on a customized index refresh
// weight slots in place — the overlay never grows, children always compose,
// and queries stay exact across many rounds of churn.
func TestCustomizedUpdateInPlace(t *testing.T) {
	g, w0 := graph.GenerateGrid(9, 9, 69)
	f := customizeFederation(t, g, w0, 70)
	sk, err := BuildSkeleton(g, w0, Params{})
	if err != nil {
		t.Fatal(err)
	}
	x, err := Customize(f, sk)
	if err != nil {
		t.Fatal(err)
	}
	arcsBefore := x.NumArcs()
	rng := rand.New(rand.NewPCG(71, 71))
	for round := 0; round < 6; round++ {
		changed := jiggleWeights(f, rng, 0.12)
		st, err := x.Update(changed)
		if err != nil {
			t.Fatal(err)
		}
		if st.AddedShortcuts != 0 {
			t.Fatalf("round %d: customized update added %d shortcuts", round, st.AddedShortcuts)
		}
		if x.NumArcs() != arcsBefore {
			t.Fatalf("round %d: overlay grew from %d to %d arcs", round, arcsBefore, x.NumArcs())
		}
		checkExactDistances(t, f, x, 30, 72+uint64(round), "customized update")
		checkShortcutInvariants(t, f, x)
	}
}

func TestCustomizedUpdateNoChangesIsFree(t *testing.T) {
	g, w0 := graph.GenerateGrid(6, 6, 73)
	f := customizeFederation(t, g, w0, 74)
	sk, err := BuildSkeleton(g, w0, Params{})
	if err != nil {
		t.Fatal(err)
	}
	x, err := Customize(f, sk)
	if err != nil {
		t.Fatal(err)
	}
	st, err := x.Update(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.RecomputedShortcuts != 0 || st.ReverifiedVertices != 0 || st.SAC.Compares != 0 {
		t.Fatalf("no-op customized update did work: %+v", st)
	}
}

// TestSkeletonRoundTrip: FRSK serialization preserves the skeleton exactly,
// and a customization over the reloaded skeleton matches one over the
// original.
func TestSkeletonRoundTrip(t *testing.T) {
	g, w0 := graph.GenerateGrid(7, 8, 75)
	sk, err := BuildSkeleton(g, w0, Params{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sk.Write(&buf); err != nil {
		t.Fatal(err)
	}
	sk2, err := ReadSkeleton(g, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sk2.NumArcs() != sk.NumArcs() || sk2.NumShortcuts() != sk.NumShortcuts() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			sk2.NumArcs(), sk2.NumShortcuts(), sk.NumArcs(), sk.NumShortcuts())
	}
	for a := range sk.tail {
		if sk.tail[a] != sk2.tail[a] || sk.head[a] != sk2.head[a] || sk.via[a] != sk2.via[a] {
			t.Fatalf("round trip changed arc %d", a)
		}
	}
	f := customizeFederation(t, g, w0, 76)
	x, err := Customize(f, sk2)
	if err != nil {
		t.Fatal(err)
	}
	checkExactDistances(t, f, x, 40, 77, "reloaded skeleton")
}

// TestReadSkeletonRejectsCorruption: structural corruptions must fail
// validation, never load.
func TestReadSkeletonRejectsCorruption(t *testing.T) {
	g, w0 := graph.GenerateGrid(5, 5, 78)
	sk, err := BuildSkeleton(g, w0, Params{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sk.Write(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := ReadSkeleton(g, bytes.NewReader(valid)); err != nil {
		t.Fatalf("pristine skeleton rejected: %v", err)
	}
	// Truncations at every section boundary and a few odd offsets.
	for _, cut := range []int{0, 3, 4, 8, 19, len(valid) / 2, len(valid) - 1} {
		if cut >= len(valid) {
			continue
		}
		if _, err := ReadSkeleton(g, bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Single-word corruptions across the stream: every mutation must either
	// be rejected or (never) silently load a different topology.
	rng := rand.New(rand.NewPCG(79, 79))
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), valid...)
		off := 4 * rng.IntN(len(valid)/4)
		mut[off] ^= byte(1 << rng.IntN(8))
		sk2, err := ReadSkeleton(g, bytes.NewReader(mut))
		if err != nil {
			continue
		}
		// The corrupted word may be benign only if the decoded topology is
		// identical (e.g. flipping an ignored high bit is impossible here,
		// so require full equality).
		if sk2.NumArcs() != sk.NumArcs() {
			t.Fatalf("corruption at %d loaded with different shape", off)
		}
		same := true
		for a := range sk.tail {
			if sk.tail[a] != sk2.tail[a] || sk.head[a] != sk2.head[a] || sk.via[a] != sk2.via[a] {
				same = false
				break
			}
		}
		for v := range sk.rank {
			if sk.rank[v] != sk2.rank[v] {
				same = false
				break
			}
		}
		if !same {
			t.Fatalf("corruption at %d silently loaded a different skeleton", off)
		}
	}
}

// TestBundleRoundTripCustomized: a WriteIndex/ReadIndex cycle preserves the
// customized index including its skeleton, and in-place updates keep working
// after reload (the winner table is rebuilt lazily).
func TestBundleRoundTripCustomized(t *testing.T) {
	g, w0 := graph.GenerateGrid(8, 7, 80)
	f := customizeFederation(t, g, w0, 81)
	sk, err := BuildSkeleton(g, w0, Params{})
	if err != nil {
		t.Fatal(err)
	}
	x, err := Customize(f, sk)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := x.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	x2, err := ReadIndex(f, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !x2.Customized() {
		t.Fatal("reloaded bundle lost its skeleton")
	}
	arcsBefore := x2.NumArcs()
	rng := rand.New(rand.NewPCG(82, 82))
	for round := 0; round < 3; round++ {
		changed := jiggleWeights(f, rng, 0.1)
		st, err := x2.Update(changed)
		if err != nil {
			t.Fatal(err)
		}
		if st.AddedShortcuts != 0 || x2.NumArcs() != arcsBefore {
			t.Fatalf("round %d: reloaded customized index grew", round)
		}
		checkExactDistances(t, f, x2, 25, 83+uint64(round), "reloaded customized update")
	}
}

// TestBundleV1StillLoads: a version-1 bundle (pre-skeleton) must keep
// loading.
func TestBundleV1StillLoads(t *testing.T) {
	f, x := buildTestIndex(t, 5, 5, 84)
	var buf bytes.Buffer
	if err := x.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if b[4] != bundleVersion {
		t.Fatalf("bundle version byte = %d", b[4])
	}
	// Rewrite the header version to 1 and drop the trailing skeleton flag
	// (a witness-built index writes hasSkeleton=0, i.e. 4 trailing bytes).
	b[4] = 1
	v1 := b[:len(b)-4]
	x2, err := ReadIndex(f, bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 bundle rejected: %v", err)
	}
	if x2.Customized() {
		t.Fatal("v1 bundle claims a skeleton")
	}
	if x2.NumShortcuts() != x.NumShortcuts() {
		t.Fatal("v1 bundle shape mismatch")
	}
}
