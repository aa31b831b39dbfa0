package morpion

// The candidate-walking move scan: the independent oracle for the
// table-driven incremental move generation of morpion.go. It recomputes
// legality of every line from the occupancy cells and usage flags alone,
// walking each line cell by cell, without the geometry table or the line
// counts.

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/game"
	"repro/internal/rng"
)

// lineCells writes the cell indices of the line (base, d) into cells and
// reports whether the whole line is on the board.
func (s *State) lineCells(baseX, baseY int, d Dir, cells []int) bool {
	dx, dy := dirDX[d], dirDY[d]
	L := s.v.LineLen
	endX := baseX + (L-1)*dx
	endY := baseY + (L-1)*dy
	if baseX < 0 || baseY < 0 || baseX >= s.w || baseY >= s.w ||
		endX < 0 || endY < 0 || endX >= s.w || endY >= s.w {
		return false
	}
	idx := baseY*s.w + baseX
	step := dy*s.w + dx
	for i := 0; i < L; i++ {
		cells[i] = idx
		idx += step
	}
	return true
}

// usedFlag reports the usage flag of direction d at cell.
func (s *State) usedFlag(cell int, d Dir) bool {
	return s.lines[cell*numDirs+int(d)]&lineUsed != 0
}

// usageFree reports whether the line with the given cells respects the
// variant's same-direction constraint against already-drawn lines: no
// shared point (D rule) or unit link, identified by its lower cell (T rule).
func (s *State) usageFree(cells []int, d Dir) bool {
	n := s.v.LineLen
	if !s.v.Disjoint {
		n--
	}
	for _, c := range cells[:n] {
		if s.usedFlag(c, d) {
			return false
		}
	}
	return true
}

// candidate checks whether the line (baseX, baseY, d) is a legal move and,
// if so, returns the packed move. A legal move has the whole line on the
// board, exactly one empty point, and satisfies the usage constraint.
func (s *State) candidate(baseX, baseY int, d Dir, cells []int) (game.Move, bool) {
	if !s.lineCells(baseX, baseY, d, cells) {
		return 0, false
	}
	empty := -1
	for i, c := range cells {
		if s.occ[c] == 0 {
			if empty >= 0 {
				return 0, false // two empty points
			}
			empty = i
		}
	}
	if empty < 0 {
		return 0, false // line already complete
	}
	if !s.usageFree(cells, d) {
		return 0, false
	}
	return packMove(baseY*s.w+baseX, d, empty), true
}

// scanAllMoves recomputes the full legal move list from scratch, in (y, x,
// d) order of the line base.
func (s *State) scanAllMoves(buf []game.Move) []game.Move {
	cells := make([]int, s.v.LineLen)
	for y := 0; y < s.w; y++ {
		for x := 0; x < s.w; x++ {
			for d := Dir(0); d < numDirs; d++ {
				if m, ok := s.candidate(x, y, d, cells); ok {
					buf = append(buf, m)
				}
			}
		}
	}
	return buf
}

// checkLines asserts the incrementally maintained line bytes equal a
// from-scratch recomputation over the occupancy cells and usage flags.
func checkLines(t *testing.T, s *State, when string) {
	t.Helper()
	want := s.linesFromScratch()
	if bytes.Equal(s.lines, want) {
		return
	}
	for id := range want {
		if s.lines[id] != want[id] {
			t.Fatalf("%s: line %d (base %d, dir %v) byte %#x, from scratch %#x",
				when, id, id/numDirs, Dir(id%numDirs), s.lines[id], want[id])
		}
	}
}

// TestNewMatchesScanOrder pins the initial list move for move, in order:
// New builds it from the line bytes in ascending line id, which must be
// the (y, x, d) order of the scan.
func TestNewMatchesScanOrder(t *testing.T) {
	for _, v := range allVariants {
		s := New(v)
		checkLines(t, s, v.Name+" initial")
		if got, want := s.LegalMoves(nil), s.scanAllMoves(nil); !equalMoves(got, want) {
			t.Fatalf("%s: initial list %v, scan order %v", v.Name, got, want)
		}
	}
}

// TestGeometryShared builds the first states of a board size no other test
// uses from several goroutines at once: all of them, and their clones,
// must share one geometry table, and their games must keep the line bytes
// exact off the standard sizes.
func TestGeometryShared(t *testing.T) {
	v := Variant{Name: "5T-56", LineLen: 5, BoardSize: 56}
	states := make([]*State, 4)
	var wg sync.WaitGroup
	for i := range states {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			states[i] = playout(New(v), rng.New(uint64(i)))
		}(i)
	}
	wg.Wait()
	for i, s := range states {
		if s.geo != states[0].geo || s.Clone().(*State).geo != s.geo {
			t.Fatalf("state %d does not share the variant's geometry", i)
		}
		checkLines(t, s, "after a concurrent game")
	}
}

// TestNewRejectsUncountableLines pins the line-length bound: at L = 8 a
// line count would overflow into the usage bit.
func TestNewRejectsUncountableLines(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a line length whose counts do not fit 7 bits")
		}
	}()
	New(Variant{Name: "8D", LineLen: 8, Disjoint: true, BoardSize: 64})
}
