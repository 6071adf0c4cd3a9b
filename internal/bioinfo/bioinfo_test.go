package bioinfo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/shell"
	"repro/internal/sim"
)

func seq(t *testing.T, s string) Sequence {
	t.Helper()
	out, err := ParseSequence(s)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestParseAndString(t *testing.T) {
	s := seq(t, "ACGTacgt")
	if s.String() != "ACGTACGT" {
		t.Fatalf("round trip %q", s)
	}
	if _, err := ParseSequence("ACGX"); err == nil {
		t.Fatal("bad base accepted")
	}
}

func TestAlignPerfectMatch(t *testing.T) {
	sc := DefaultScoring()
	q := seq(t, "ACGTACGT")
	al := Align(q, q, sc)
	if al.Score != len(q)*sc.Match {
		t.Fatalf("score %d, want %d", al.Score, len(q)*sc.Match)
	}
	if al.QueryEnd != len(q) || al.RefEnd != len(q) {
		t.Errorf("ends %d/%d", al.QueryEnd, al.RefEnd)
	}
}

func TestAlignSubstring(t *testing.T) {
	sc := DefaultScoring()
	ref := seq(t, "TTTTTTACGTACGTTTTTT")
	q := seq(t, "ACGTACGT")
	al := Align(q, ref, sc)
	if al.Score != len(q)*sc.Match {
		t.Fatalf("embedded match score %d", al.Score)
	}
	if al.RefEnd != 14 {
		t.Errorf("ref end %d, want 14", al.RefEnd)
	}
}

func TestAlignNoSimilarity(t *testing.T) {
	sc := DefaultScoring()
	al := Align(seq(t, "AAAA"), seq(t, "TTTT"), sc)
	if al.Score != 0 {
		t.Fatalf("score %d for dissimilar sequences (local alignment floors at 0)", al.Score)
	}
}

func TestAlignWithGap(t *testing.T) {
	sc := DefaultScoring()
	// Query = reference with one base deleted: best local alignment
	// should bridge the gap (2 segments x match - gap open).
	ref := seq(t, "ACGTACGTACGT")
	q := seq(t, "ACGTACGACGT") // 'T' at position 8 deleted
	al := Align(q, ref, sc)
	want := 11*sc.Match + sc.GapOpen
	if al.Score != want {
		t.Fatalf("gapped score %d, want %d", al.Score, want)
	}
}

func TestAlignEmpty(t *testing.T) {
	if al := Align(nil, seq(t, "ACGT"), DefaultScoring()); al.Score != 0 {
		t.Fatal("empty query should score 0")
	}
}

// Property: alignment score is symmetric for match/mismatch-only scoring
// and never negative; mutating the query never raises the score above
// the perfect self-alignment.
func TestPropertyAlignBounds(t *testing.T) {
	sc := DefaultScoring()
	f := func(seed int64, n8 uint8, rate8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8)%120 + 4
		ref := RandomSequence(rng, n)
		perfect := Align(ref, ref, sc).Score
		q := Mutate(rng, ref, float64(rate8%100)/100)
		al := Align(q, ref, sc)
		return al.Score >= 0 && al.Score <= perfect
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(81))}); err != nil {
		t.Fatal(err)
	}
}

func TestMutatedReadAlignsToOrigin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := RandomSequence(rng, 500)
	read := Mutate(rng, ref[100:200], 0.05)
	al := Align(read, ref, DefaultScoring())
	// The read should align near its origin with a strong score.
	if al.RefEnd < 180 || al.RefEnd > 220 {
		t.Errorf("read aligned at %d, want ~200", al.RefEnd)
	}
	if al.Score < 140 { // 100 bases, ~95 matches x2 - penalties
		t.Errorf("score %d too weak for 5%% divergence", al.Score)
	}
}

func TestCostModelSpeedup(t *testing.T) {
	cm := DefaultCostModel()
	// Systolic arrays deliver large speedups on wide problems.
	sp := cm.Speedup(128, 4096)
	if sp < 20 {
		t.Fatalf("speedup %.1f too low for a 256-PE array", sp)
	}
	// Tiling: queries longer than the array take proportionally longer.
	t1 := cm.FPGATime(256, 1000)
	t2 := cm.FPGATime(512, 1000)
	if t2 <= t1 {
		t.Error("tiled query not slower")
	}
}

func TestRoleOverPCIe(t *testing.T) {
	s := sim.New(1)
	sh := shell.New(s, 0, netsim.DefaultPortConfig(), shell.DefaultConfig())
	role := NewRole(s, DefaultCostModel(), DefaultScoring())
	sh.LoadRole(role.HandleRequest)

	rng := rand.New(rand.NewSource(9))
	ref := RandomSequence(rng, 800)
	q := Mutate(rng, ref[200:328], 0.03)
	want := Align(q, ref, DefaultScoring())

	var got Alignment
	var at sim.Time
	err := sh.PCIeCall(EncodeRequest(q, ref), func(resp []byte) {
		al, ok := DecodeResponse(resp)
		if !ok {
			t.Error("bad response")
		}
		got = al
		at = s.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(50 * sim.Millisecond)
	if got.Score != want.Score || got.RefEnd != want.RefEnd {
		t.Fatalf("role alignment %+v != direct %+v", got, want)
	}
	// Latency must cover the systolic time (~(800+128)/200MHz + fixed).
	minT := DefaultCostModel().FPGATime(len(q), len(ref))
	if at < minT {
		t.Errorf("completed at %v, below array time %v", at, minT)
	}
}

func TestRoleQueuesInOrder(t *testing.T) {
	s := sim.New(1)
	sh := shell.New(s, 0, netsim.DefaultPortConfig(), shell.DefaultConfig())
	role := NewRole(s, DefaultCostModel(), DefaultScoring())
	sh.LoadRole(role.HandleRequest)
	rng := rand.New(rand.NewSource(10))
	ref := RandomSequence(rng, 400)
	var done []sim.Time
	for i := 0; i < 5; i++ {
		q := Mutate(rng, ref[50:150], 0.02)
		sh.PCIeCall(EncodeRequest(q, ref), func([]byte) { done = append(done, s.Now()) })
	}
	s.RunFor(50 * sim.Millisecond)
	if len(done) != 5 {
		t.Fatalf("completed %d/5", len(done))
	}
	for i := 1; i < len(done); i++ {
		if done[i] <= done[i-1] {
			t.Fatal("array completions out of order")
		}
	}
	if role.Aligned != 5 {
		t.Errorf("Aligned = %d", role.Aligned)
	}
}

func TestRoleRejectsMalformed(t *testing.T) {
	s := sim.New(1)
	role := NewRole(s, DefaultCostModel(), DefaultScoring())
	got := []byte("sentinel")
	role.HandleRequest([]byte{1}, func(r []byte) { got = r })
	if got != nil {
		t.Fatal("malformed request not rejected")
	}
}
