package morpion

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/game"
	"repro/internal/rng"
)

var allVariants = []Variant{Var5T, Var5D, Var4T, Var4D}

func TestInitialCross(t *testing.T) {
	for _, v := range allVariants {
		s := New(v)
		points := 0
		for _, o := range s.occ {
			if o != 0 {
				points++
			}
		}
		if points != v.CrossPoints() {
			t.Errorf("%s: initial cross has %d points, want %d", v.Name, points, v.CrossPoints())
		}
		if s.MovesPlayed() != 0 || s.Score() != 0 {
			t.Errorf("%s: initial position has nonzero score", v.Name)
		}
		if s.Terminal() {
			t.Errorf("%s: initial position is terminal", v.Name)
		}
	}
}

func TestInitialMoveCount5(t *testing.T) {
	// The standard 36-point cross has exactly 28 legal first moves in the
	// lines-of-5 variants (a well-known property of the puzzle). T and D
	// agree on the first move because no line has been drawn yet.
	for _, v := range []Variant{Var5T, Var5D} {
		s := New(v)
		if n := s.NumLegalMoves(); n != 28 {
			t.Errorf("%s: initial position has %d moves, want 28", v.Name, n)
		}
	}
}

func TestInitialMovesTAndDAgree4(t *testing.T) {
	// Same argument for lines of 4: before any line exists, T and D have
	// identical legal moves (cell indices differ across board sizes, so
	// compare counts and cross-coordinate notation).
	st := New(Var4T)
	sd := New(Var4D)
	mt := formatAll(st)
	md := formatAll(sd)
	if len(mt) != len(md) {
		t.Fatalf("4T has %d initial moves, 4D has %d", len(mt), len(md))
	}
	for i := range mt {
		if mt[i] != md[i] {
			t.Fatalf("initial move %d differs: 4T=%s 4D=%s", i, mt[i], md[i])
		}
	}
	if len(mt) == 0 {
		t.Fatal("no initial moves in lines-of-4 variants")
	}
}

func formatAll(s *State) []string {
	var out []string
	for _, m := range s.LegalMoves(nil) {
		out = append(out, s.FormatMove(m))
	}
	sort.Strings(out)
	return out
}

// playout plays uniformly random moves to the end and returns the state.
func playout(s *State, r *rng.Rand) *State {
	var buf []game.Move
	for {
		buf = s.LegalMoves(buf[:0])
		if len(buf) == 0 {
			return s
		}
		s.Play(buf[r.Intn(len(buf))])
	}
}

func TestIncrementalMovegenMatchesRescan(t *testing.T) {
	// Oracle test: after every move of a random game, the incrementally
	// maintained move list must equal a from-scratch scan, and the line
	// bytes a from-scratch count. The game is then undone move by move
	// with the line bytes checked again.
	for _, v := range allVariants {
		t.Run(v.Name, func(t *testing.T) {
			r := rng.New(1234)
			for trial := 0; trial < 3; trial++ {
				s := New(v)
				var buf []game.Move
				for !s.Terminal() {
					buf = s.LegalMoves(buf[:0])
					s.Play(buf[r.Intn(len(buf))])
					checkLines(t, s, "after play")
					got := append([]game.Move(nil), s.moves...)
					want := s.scanAllMoves(nil)
					sortMoves(got)
					sortMoves(want)
					if !equalMoves(got, want) {
						t.Fatalf("%s: move list diverged after move %d:\nincremental=%v\nrescan=%v",
							v.Name, s.MovesPlayed(), got, want)
					}
				}
				for s.MovesPlayed() > 0 {
					s.Undo()
					checkLines(t, s, "after undo")
				}
			}
		})
	}
}

func sortMoves(ms []game.Move) {
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
}

func equalMoves(a, b []game.Move) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPlayUndoRoundTrip(t *testing.T) {
	for _, v := range allVariants {
		t.Run(v.Name, func(t *testing.T) {
			r := rng.New(99)
			s := New(v)
			snapOcc := append([]uint8(nil), s.occ...)
			snapLines := append([]uint8(nil), s.lines...)
			snapMoves := append([]game.Move(nil), s.moves...)
			sortMoves(snapMoves)

			// Play a full random game, then undo everything.
			playout(s, r)
			played := s.MovesPlayed()
			if played == 0 {
				t.Fatal("random game played zero moves")
			}
			s.Reset()

			if s.MovesPlayed() != 0 {
				t.Fatalf("after Reset, %d moves remain", s.MovesPlayed())
			}
			for i := range snapOcc {
				if s.occ[i] != snapOcc[i] {
					t.Fatalf("occupancy cell %d not restored", i)
				}
			}
			for id, b := range s.lines {
				if b&lineUsed != 0 {
					t.Fatalf("usage flag of line %d not cleared by undo", id)
				}
				if b != snapLines[id] {
					t.Fatalf("line %d byte %#x not restored to %#x", id, b, snapLines[id])
				}
			}
			got := append([]game.Move(nil), s.moves...)
			sortMoves(got)
			if !equalMoves(got, snapMoves) {
				t.Fatalf("move list not restored: got %d moves, want %d", len(got), len(snapMoves))
			}
		})
	}
}

func TestUndoPanicsOnInitial(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Undo on initial position did not panic")
		}
	}()
	New(Var5D).Undo()
}

func TestSameDirectionConstraint(t *testing.T) {
	// Structural invariant: replay the game's lines and verify the variant
	// rule pairwise — D: no two same-direction lines share a point;
	// T: no two same-direction lines share a link.
	for _, v := range allVariants {
		t.Run(v.Name, func(t *testing.T) {
			r := rng.New(7)
			for trial := 0; trial < 5; trial++ {
				s := playout(New(v), r)
				checkLinesConstraint(t, s)
			}
		})
	}
}

func checkLinesConstraint(t *testing.T, s *State) {
	t.Helper()
	type line struct {
		d     Dir
		cells []int
	}
	var lines []line
	L := s.v.LineLen
	for _, m := range s.seq {
		base, d, _ := unpackMove(m)
		step := s.stepOf(d)
		cells := make([]int, L)
		for i := range cells {
			cells[i] = base + i*step
		}
		lines = append(lines, line{d, cells})
	}
	for i := 0; i < len(lines); i++ {
		for j := i + 1; j < len(lines); j++ {
			if lines[i].d != lines[j].d {
				continue
			}
			if s.v.Disjoint {
				for _, a := range lines[i].cells {
					for _, b := range lines[j].cells {
						if a == b {
							t.Fatalf("disjoint violated: lines %d and %d share point %d", i, j, a)
						}
					}
				}
			} else {
				// links are the first L-1 cells (lower endpoints)
				for _, a := range lines[i].cells[:L-1] {
					for _, b := range lines[j].cells[:L-1] {
						if a == b {
							t.Fatalf("touching violated: lines %d and %d share link at %d", i, j, a)
						}
					}
				}
			}
		}
	}
}

func TestEveryMoveAddsExactlyOnePoint(t *testing.T) {
	r := rng.New(42)
	s := New(Var5T)
	var buf []game.Move
	prev := countPoints(s)
	for !s.Terminal() {
		buf = s.LegalMoves(buf[:0])
		s.Play(buf[r.Intn(len(buf))])
		now := countPoints(s)
		if now != prev+1 {
			t.Fatalf("move %d added %d points, want 1", s.MovesPlayed(), now-prev)
		}
		prev = now
	}
	if got := countPoints(s); got != Var5T.CrossPoints()+s.MovesPlayed() {
		t.Fatalf("final points %d != cross %d + moves %d", got, Var5T.CrossPoints(), s.MovesPlayed())
	}
}

func countPoints(s *State) int {
	n := 0
	for _, o := range s.occ {
		if o != 0 {
			n++
		}
	}
	return n
}

func TestRandomPlayoutScoreRanges(t *testing.T) {
	// Random 5T/5D games are known to land around 60-70 moves; 4-variants
	// are much shorter. Loose sanity bounds with fixed seeds.
	bounds := map[string][2]int{
		"5T": {40, 120},
		"5D": {30, 100},
		"4T": {8, 80},
		"4D": {5, 60},
	}
	r := rng.New(2024)
	for _, v := range allVariants {
		lo, hi := bounds[v.Name][0], bounds[v.Name][1]
		sum := 0
		const n = 20
		for i := 0; i < n; i++ {
			s := playout(New(v), r)
			sum += s.MovesPlayed()
		}
		avg := sum / n
		if avg < lo || avg > hi {
			t.Errorf("%s: average random score %d outside sanity range [%d,%d]", v.Name, avg, lo, hi)
		}
		t.Logf("%s: average random playout score %d", v.Name, avg)
	}
}

func TestTouchingOutscoresDisjoint(t *testing.T) {
	// The touching rule is strictly more permissive, so random play should
	// score clearly higher on 5T than 5D on average.
	r := rng.New(5)
	const n = 30
	sumT, sumD := 0, 0
	for i := 0; i < n; i++ {
		sumT += playout(New(Var5T), r).MovesPlayed()
		sumD += playout(New(Var5D), r).MovesPlayed()
	}
	if sumT <= sumD {
		t.Errorf("5T average %d not above 5D average %d", sumT/n, sumD/n)
	}
}

func TestCloneIndependence(t *testing.T) {
	r := rng.New(17)
	s := New(Var5D)
	var buf []game.Move
	for i := 0; i < 10; i++ {
		buf = s.LegalMoves(buf[:0])
		s.Play(buf[r.Intn(len(buf))])
	}
	c := s.Clone().(*State)
	scoreBefore := s.Score()
	movesBefore := append([]game.Move(nil), s.moves...)

	playout(c, r) // run the clone to the end

	if s.Score() != scoreBefore {
		t.Fatal("mutating clone changed original score")
	}
	got := append([]game.Move(nil), s.moves...)
	if !equalMoves(got, movesBefore) {
		t.Fatal("mutating clone changed original move list")
	}
	if c.MovesPlayed() <= s.MovesPlayed() {
		t.Fatal("clone playout did not advance")
	}
}

func TestCloneEqualBehaviour(t *testing.T) {
	// Playing the same moves on original and clone keeps them identical.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		s := New(Var4D)
		var buf []game.Move
		for i := 0; i < 5 && !s.Terminal(); i++ {
			buf = s.LegalMoves(buf[:0])
			s.Play(buf[r.Intn(len(buf))])
		}
		c := s.Clone().(*State)
		for !s.Terminal() {
			buf = s.LegalMoves(buf[:0])
			m := buf[r.Intn(len(buf))]
			s.Play(m)
			c.Play(m)
		}
		return c.Terminal() && c.Score() == s.Score()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNotationRoundTrip(t *testing.T) {
	for _, v := range allVariants {
		r := rng.New(3)
		s := playout(New(v), r)
		text, err := FormatSequence(v, s.Sequence())
		if err != nil {
			t.Fatalf("%s: format: %v", v.Name, err)
		}
		replayed, err := ParseSequence(v, text)
		if err != nil {
			t.Fatalf("%s: parse: %v", v.Name, err)
		}
		if replayed.Score() != s.Score() {
			t.Fatalf("%s: notation round trip changed score %v -> %v", v.Name, s.Score(), replayed.Score())
		}
	}
}

func TestParseMoveErrors(t *testing.T) {
	s := New(Var5D)
	for _, bad := range []string{"", "1,2", "1,2:X:0", "a,b:E:0", "1,2:E:9", "1,2:E:x"} {
		if _, err := s.ParseMove(bad); err == nil {
			t.Errorf("ParseMove(%q) succeeded, want error", bad)
		}
	}
}

func TestParseSequenceRejectsIllegal(t *testing.T) {
	// A syntactically valid move that is not legal from the initial
	// position must be rejected.
	if _, err := ParseSequence(Var5D, "0,0:E:0"); err == nil {
		t.Fatal("illegal sequence accepted")
	}
}

func TestVariantByName(t *testing.T) {
	for _, v := range allVariants {
		got, err := VariantByName(v.Name)
		if err != nil || got.Name != v.Name {
			t.Errorf("VariantByName(%q) = %v, %v", v.Name, got, err)
		}
	}
	if _, err := VariantByName("6X"); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestRenderShowsScoreAndPoints(t *testing.T) {
	r := rng.New(9)
	s := playout(New(Var4D), r)
	out := s.Render()
	if len(out) == 0 {
		t.Fatal("empty rendering")
	}
	if want := "score="; !contains(out, want) {
		t.Fatalf("rendering missing %q:\n%s", want, out)
	}
	if !contains(out, " o") {
		t.Fatalf("rendering missing cross points:\n%s", out)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestRenderSequenceMatchesReplay(t *testing.T) {
	r := rng.New(21)
	s := playout(New(Var4T), r)
	out, err := RenderSequence(Var4T, s.Sequence())
	if err != nil {
		t.Fatal(err)
	}
	if out != s.Render() {
		t.Fatal("RenderSequence differs from direct Render")
	}
}

func TestEncodedSizePositive(t *testing.T) {
	s := New(Var5D)
	if s.EncodedSize() <= 0 {
		t.Fatal("non-positive encoded size")
	}
	before := s.EncodedSize()
	r := rng.New(4)
	playout(s, r)
	if s.EncodedSize() <= before {
		t.Fatal("encoded size did not grow with the sequence")
	}
}

func TestBestKnownRecords(t *testing.T) {
	if BestKnown("5D") != 80 {
		t.Errorf("5D best known = %d, want 80 (the paper's record)", BestKnown("5D"))
	}
	if BestKnown("nope") != 0 {
		t.Error("unknown variant should report 0")
	}
}

func TestMovePartsConsistency(t *testing.T) {
	s := New(Var5T)
	for _, m := range s.LegalMoves(nil) {
		newX, newY, baseX, baseY, d, k := s.MoveParts(m)
		if newX != baseX+k*dirDX[d] || newY != baseY+k*dirDY[d] {
			t.Fatalf("MoveParts inconsistent for move %v", m)
		}
		if s.Occupied(newX, newY) {
			t.Fatalf("new point (%d,%d) of a legal move is already occupied", newX, newY)
		}
	}
}

func TestDeterministicPlayoutsAcrossBoards(t *testing.T) {
	// The same seed must give the same game (move list order is
	// deterministic by construction).
	a := playout(New(Var5D), rng.New(31))
	b := playout(New(Var5D), rng.New(31))
	if a.Score() != b.Score() {
		t.Fatalf("same seed, different scores: %v vs %v", a.Score(), b.Score())
	}
	sa := a.Sequence()
	sb := b.Sequence()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("same seed, sequences differ at move %d", i)
		}
	}
}

func BenchmarkRandomPlayout5D(b *testing.B) {
	r := rng.New(1)
	base := New(Var5D)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := base.Clone().(*State)
		playout(s, r)
	}
}

func BenchmarkRandomPlayout4D(b *testing.B) {
	r := rng.New(1)
	base := New(Var4D)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := base.Clone().(*State)
		playout(s, r)
	}
}

func BenchmarkClone5D(b *testing.B) {
	s := New(Var5D)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Clone()
	}
}
