// Package morpion implements the Morpion Solitaire puzzle, the evaluation
// domain of the paper.
//
// Morpion Solitaire is played on a grid of lattice points. The initial
// position is a cross of 36 points. A move places one new point and draws a
// line of k consecutive points (k=5 in the paper's version) through it:
// every other point of the line must already be present. Lines are
// horizontal, vertical or diagonal. The goal is to play as many moves as
// possible; the game score is the number of moves played.
//
// Two families of rules restrict how lines in the same direction may relate:
//
//   - Touching (T): two lines in the same direction may share an endpoint
//     but not a unit segment (link) of the grid.
//   - Disjoint (D): two lines in the same direction may not share any point.
//
// The paper uses the 5D (disjoint, line length 5) variant; 5T, 4T and 4D are
// the standard companions from the literature (Demaine et al. 2006) and are
// used here as cheaper stand-ins for scaled-down experiments. Morpion
// Solitaire is NP-hard (Demaine et al.), has a large state space and no good
// heuristic, which is exactly why the paper evaluates nested Monte-Carlo
// search on it.
package morpion

import (
	"fmt"
	"sync"

	"repro/internal/game"
	"repro/internal/rng"
)

// Incremental position hashing (game.Hasher). The hash is a Zobrist XOR
// over the occupied cells and the per-direction usage flags on top of a
// per-variant base salt. The key of a feature is one rng.Mix of its plane
// salt and cell index. Play and Undo read the keys from the geometry
// table (occKey, usedKey), built once per board size like the line table;
// hashFromScratch derives them afresh, so the tests check one against the
// other.
const hashSalt = 0x4d6f7270696f6e88 // "Morpion" flavoured

// planeSalt[p] salts the feature keys of plane p (0 = occupancy, 1+d =
// usage of direction d), fixed at init so hashes are stable across
// processes.
var planeSalt [1 + numDirs]uint64

func init() {
	for p := range planeSalt {
		planeSalt[p] = rng.Fold(hashSalt, uint64(p))
	}
}

// baseHash returns the variant-dependent starting value of the hash.
func baseHash(v Variant, w int) uint64 {
	disjoint := uint64(0)
	if v.Disjoint {
		disjoint = 1
	}
	return rng.Fold(hashSalt, uint64(v.LineLen), disjoint, uint64(w))
}

// Dir indexes the four line directions.
type Dir uint8

// The four directions a line can take. Their unit deltas are in dirDX/dirDY.
const (
	DirE    Dir = iota // east: dx=1, dy=0 (horizontal)
	DirS               // south: dx=0, dy=1 (vertical)
	DirSE              // south-east: dx=1, dy=1 (main diagonal)
	DirNE              // north-east: dx=1, dy=-1 (anti-diagonal)
	numDirs = 4
)

var dirDX = [numDirs]int{1, 0, 1, 1}
var dirDY = [numDirs]int{0, 1, 1, -1}
var dirNames = [numDirs]string{"E", "S", "SE", "NE"}

// String returns the compass name of the direction.
func (d Dir) String() string {
	if d < numDirs {
		return dirNames[d]
	}
	return fmt.Sprintf("Dir(%d)", uint8(d))
}

// Variant describes one rule set of Morpion Solitaire.
type Variant struct {
	Name string
	// LineLen is the number of points in a line (4 or 5 in the standard
	// variants).
	LineLen int
	// Disjoint selects the D rule (no shared point between same-direction
	// lines); false selects the T rule (no shared link).
	Disjoint bool
	// BoardSize is the side of the square working grid. It is sized so that
	// record-length games cannot reach the border.
	BoardSize int
}

// The four standard variants. The paper's experiments all use Var5D;
// Var4D and Var4T are the scaled-down stand-ins used by the fast
// experiment presets, and Var5T is the variant with the longest known games.
var (
	Var5T = Variant{Name: "5T", LineLen: 5, Disjoint: false, BoardSize: 64}
	Var5D = Variant{Name: "5D", LineLen: 5, Disjoint: true, BoardSize: 52}
	Var4T = Variant{Name: "4T", LineLen: 4, Disjoint: false, BoardSize: 40}
	Var4D = Variant{Name: "4D", LineLen: 4, Disjoint: true, BoardSize: 40}
)

// VariantByName returns the standard variant with the given name.
func VariantByName(name string) (Variant, error) {
	switch name {
	case "5T":
		return Var5T, nil
	case "5D":
		return Var5D, nil
	case "4T":
		return Var4T, nil
	case "4D":
		return Var4D, nil
	}
	return Variant{}, fmt.Errorf("morpion: unknown variant %q (want 5T, 5D, 4T or 4D)", name)
}

// crossRows5 describes the standard 36-point initial cross of the
// lines-of-5 variants inside its 10×10 bounding box; crossRows5[y] lists the
// x coordinates of initial points.
var crossRows5 = [][]int{
	{3, 4, 5, 6},
	{3, 6},
	{3, 6},
	{0, 1, 2, 3, 6, 7, 8, 9},
	{0, 9},
	{0, 9},
	{0, 1, 2, 3, 6, 7, 8, 9},
	{3, 6},
	{3, 6},
	{3, 4, 5, 6},
}

// crossRows4 is the scaled analogue for the lines-of-4 variants: the same
// Greek-cross outline built from segments of 3 points (24 points, 7×7 box).
var crossRows4 = [][]int{
	{2, 3, 4},
	{2, 4},
	{0, 1, 2, 4, 5, 6},
	{0, 6},
	{0, 1, 2, 4, 5, 6},
	{2, 4},
	{2, 3, 4},
}

// crossFor returns the initial cross layout for a line length.
func crossFor(lineLen int) [][]int {
	if lineLen <= 4 {
		return crossRows4
	}
	return crossRows5
}

// CrossPoints returns the number of points in the initial cross of the
// variant (36 for lines of 5, 24 for lines of 4).
func (v Variant) CrossPoints() int {
	n := 0
	for _, row := range crossFor(v.LineLen) {
		n += len(row)
	}
	return n
}

// --- line geometry --------------------------------------------------------

// A line is identified by its base cell and direction: id = base*numDirs+d.
// Each State keeps one byte per line id (State.lines):
//
//	bit 7      : lineUsed, the usage flag of the base cell in direction d —
//	             its point (D rule) or the unit link from it (T rule) is
//	             consumed by a drawn line of direction d
//	bits 0..6  : (LineLen - occupied points of the line)
//	             + usedUnit * (usage flags of direction d on the line)
//
// The usage flags counted are the line's LineLen points under the D rule
// and its LineLen-1 links (flags of its first LineLen-1 cells) under the
// T rule. An on-board line is a legal move iff its count is exactly 1: one
// empty point and no usage. The count stays below 128 while LineLen ≤ 7
// (at most 7 + 16·7 = 119). Lines that leave the board keep count 0.
const (
	lineUsed  = 0x80
	lineCount = 0x7f
	usedUnit  = 16
	maxLine   = 7 // longest line whose count fits in lineCount
)

// geometry is the immutable per-variant line table shared by every State
// of that variant.
type geometry struct {
	lineLen int
	// span is the number of usage flags a drawn line claims, and so the
	// number of lines of its direction that hold each flag: LineLen points
	// (D) or LineLen-1 links (T).
	span  int
	steps [numDirs]int // cell-index delta of one step in each direction
	// through[(cell*numDirs+d)*lineLen+k] is the id of the line of
	// direction d holding cell at offset k, or -1 if that line leaves the
	// board. A cell's row lists its lines d-major, then by k. Since offset
	// 0 is the base, entry [id*lineLen] is id itself for on-board lines.
	through []int32
	// occKey[cell] and usedKey[id] are the Zobrist keys of a point at cell
	// and of the usage flag held by line byte id.
	occKey, usedKey []uint64
}

type geometryKey struct {
	lineLen, boardSize int
	disjoint           bool
}

// geometries caches one geometry per (LineLen, Disjoint, BoardSize).
var geometries sync.Map

func geometryFor(v Variant) *geometry {
	key := geometryKey{v.LineLen, v.BoardSize, v.Disjoint}
	if g, ok := geometries.Load(key); ok {
		return g.(*geometry)
	}
	g, _ := geometries.LoadOrStore(key, newGeometry(v))
	return g.(*geometry)
}

func newGeometry(v Variant) *geometry {
	L, w := v.LineLen, v.BoardSize
	g := &geometry{lineLen: L, span: L, through: make([]int32, w*w*numDirs*L)}
	if !v.Disjoint {
		g.span = L - 1
	}
	keys := make([]uint64, (1+numDirs)*w*w)
	g.occKey, g.usedKey = keys[:w*w], keys[w*w:]
	for cell := range g.occKey {
		g.occKey[cell] = rng.Mix(planeSalt[0], uint64(cell))
	}
	for id := range g.usedKey {
		g.usedKey[id] = rng.Mix(planeSalt[1+id%numDirs], uint64(id/numDirs))
	}
	onBoard := func(x, y int) bool { return x >= 0 && x < w && y >= 0 && y < w }
	for d := 0; d < numDirs; d++ {
		g.steps[d] = dirDY[d]*w + dirDX[d]
	}
	for cell := 0; cell < w*w; cell++ {
		for d := 0; d < numDirs; d++ {
			for k := 0; k < L; k++ {
				bx, by := cell%w-k*dirDX[d], cell/w-k*dirDY[d]
				id := int32(-1)
				if onBoard(bx, by) && onBoard(bx+(L-1)*dirDX[d], by+(L-1)*dirDY[d]) {
					id = int32((by*w+bx)*numDirs + d)
				}
				g.through[(cell*numDirs+d)*L+k] = id
			}
		}
	}
	return g
}

// row returns the ids of the lines through cell, d-major then by offset.
func (g *geometry) row(cell int) []int32 {
	n := numDirs * g.lineLen
	return g.through[cell*n : cell*n+n]
}

// blocked returns the ids of the lines of direction d that hold the usage
// flag at cell (its point under D, the link from it under T), by offset.
func (g *geometry) blocked(cell int, d Dir) []int32 {
	i := (cell*numDirs + int(d)) * g.lineLen
	return g.through[i : i+g.span]
}

// State is a Morpion Solitaire position with incrementally maintained legal
// moves. It implements game.State. The zero value is not usable; call New.
type State struct {
	v   Variant
	w   int // board side
	geo *geometry

	// planes is the single backing array for occ and lines (five bytes per
	// cell); keeping them contiguous makes Clone a single allocation plus
	// copy, which matters because nested search clones on every candidate
	// move.
	planes []uint8
	// occ[i] is nonzero when grid cell i holds a point.
	occ []uint8
	// lines[id] is the state byte of line id = base*numDirs+d: its
	// fill/usage count and the usage flag of (base, d). See lineUsed.
	lines []uint8

	moves []game.Move // current legal moves, deterministic order
	seq   []game.Move // moves played since the initial position

	// Undo history. Every Play records one histEntry; the moves it removed
	// from the legal list (and their original indices) are pushed onto the
	// histMoves/histIdx arena stacks rather than per-entry slices, so the
	// bookkeeping allocates nothing once the arenas have grown to the
	// game's depth — Play/Undo is allocation-free in steady state, which is
	// what lets nested search traverse with Undo instead of Clone.
	hist      []histEntry
	histMoves []game.Move // arena: removed moves, stacked per entry
	histIdx   []int32     // arena: their original list positions, ascending

	// originX/Y is the top-left corner of the cross's bounding box, used by
	// the human-readable notation so coordinates are board-size independent.
	originX, originY int

	// hash is the incremental Zobrist hash of the plane content, maintained
	// by Play and Undo. See game.Hasher.
	hash uint64
}

// histEntry is the undo record of one Play. The removed moves occupy the
// top numRemoved slots of the histMoves/histIdx arenas (undo is LIFO, so
// offsets are implicit in the stack discipline).
type histEntry struct {
	move       game.Move
	numRemoved int32 // moves deleted from the legal list by this move
	numAdded   int32 // moves appended to the list by this move
}

// New returns the initial position of the given variant, with the standard
// 36-point cross centred on the working grid.
func New(v Variant) *State {
	if v.LineLen < 3 || v.LineLen > maxLine {
		panic(fmt.Sprintf("morpion: unsupported line length %d", v.LineLen))
	}
	cross := crossFor(v.LineLen)
	w := v.BoardSize
	if w < len(cross)+4*v.LineLen {
		panic(fmt.Sprintf("morpion: board size %d too small for line length %d", w, v.LineLen))
	}
	s := &State{v: v, w: w, geo: geometryFor(v)}
	s.attachPlanes(make([]uint8, 5*w*w))
	s.originX = (w - len(cross)) / 2
	s.originY = (w - len(cross)) / 2
	s.hash = baseHash(v, w)
	// Every on-board line starts with all its points empty.
	for id := range s.lines {
		if s.geo.through[id*v.LineLen] >= 0 {
			s.lines[id] = uint8(v.LineLen)
		}
	}
	for y, xs := range cross {
		for _, x := range xs {
			s.occupy((s.originY+y)*w + s.originX + x)
		}
	}
	// Ascending line ids visit bases in (y, x) order, then directions.
	for id, b := range s.lines {
		if b&lineCount == 1 {
			s.moves = append(s.moves, s.lineMove(id))
		}
	}
	return s
}

// attachPlanes slices occ and lines out of one backing array.
func (s *State) attachPlanes(planes []uint8) {
	cells := s.w * s.w
	s.planes = planes
	s.occ = planes[:cells:cells]
	s.lines = planes[cells:]
}

// Variant returns the rule set of the position.
func (s *State) Variant() Variant { return s.v }

// BoardSize returns the side length of the working grid.
func (s *State) BoardSize() int { return s.w }

// Occupied reports whether the grid cell (x, y) holds a point.
func (s *State) Occupied(x, y int) bool {
	return x >= 0 && x < s.w && y >= 0 && y < s.w && s.occ[y*s.w+x] != 0
}

// MovesPlayed returns the number of moves played from the initial cross.
func (s *State) MovesPlayed() int { return len(s.seq) }

// Sequence returns a copy of the moves played so far.
func (s *State) Sequence() []game.Move {
	return append([]game.Move(nil), s.seq...)
}

// Score returns the game score: the number of moves played. This is the
// quantity the search maximizes (paper §III).
func (s *State) Score() float64 { return float64(len(s.seq)) }

// Terminal reports whether no legal move remains.
func (s *State) Terminal() bool { return len(s.moves) == 0 }

// LegalMoves appends the legal moves to buf and returns it.
func (s *State) LegalMoves(buf []game.Move) []game.Move {
	return append(buf, s.moves...)
}

// NumLegalMoves returns the current branching factor.
func (s *State) NumLegalMoves() int { return len(s.moves) }

// Clone returns a deep copy of the position. Per the game.State
// clone-with-undo contract, the clone does NOT inherit the source's undo
// history: it starts with an empty history whose floor is the clone point,
// so a clone can be searched forward with Play/Undo but rewinds at most
// back to the position it was cloned from (Undo past the floor panics, and
// Reset rewinds a clone only to the clone point). Dropping the history is
// what keeps Clone a handful of slice copies regardless of game length.
func (s *State) Clone() game.State {
	c := &State{
		v:       s.v,
		w:       s.w,
		geo:     s.geo,
		moves:   append([]game.Move(nil), s.moves...),
		seq:     append([]game.Move(nil), s.seq...),
		originX: s.originX,
		originY: s.originY,
		hash:    s.hash,
	}
	c.attachPlanes(append([]uint8(nil), s.planes...))
	return c
}

// CopyFrom implements game.Copier: it overwrites s with a deep copy of src,
// reusing s's backing arrays where sizes allow (a variant or board-size
// change reallocates them, so cross-variant copies are safe, just not
// free). Like Clone, the copy starts with an empty undo history floored at
// the copied position. src must be a Morpion state.
func (s *State) CopyFrom(src game.State) {
	o, ok := src.(*State)
	if !ok {
		panic("morpion: CopyFrom with a non-Morpion state")
	}
	s.v = o.v
	s.geo = o.geo
	if s.w != o.w {
		s.w = o.w
		s.attachPlanes(make([]uint8, len(o.planes)))
	}
	copy(s.planes, o.planes)
	s.moves = append(s.moves[:0], o.moves...)
	s.seq = append(s.seq[:0], o.seq...)
	s.originX, s.originY = o.originX, o.originY
	s.hash = o.hash
	s.hist = s.hist[:0]
	s.histMoves = s.histMoves[:0]
	s.histIdx = s.histIdx[:0]
}

// Hash implements game.Hasher: the incremental Zobrist hash of the plane
// content. Positions with equal planes hash equal regardless of the move
// order that produced them (note the legal-move LIST order is
// history-dependent and is deliberately not hashed; cache consumers that
// depend on it must select moves order-independently — see
// core.Searcher's derived mode).
func (s *State) Hash() uint64 { return s.hash }

// hashFromScratch recomputes the position hash from the planes alone. It
// is the oracle the fuzz tests compare the incremental hash against.
func (s *State) hashFromScratch() uint64 {
	h := baseHash(s.v, s.w)
	for idx, occ := range s.occ {
		if occ != 0 {
			h ^= rng.Mix(planeSalt[0], uint64(idx))
		}
	}
	for id, b := range s.lines {
		if b&lineUsed != 0 {
			h ^= rng.Mix(planeSalt[1+id%numDirs], uint64(id/numDirs))
		}
	}
	return h
}

// linesFromScratch recomputes every line byte from the occupancy cells and
// the usage flags by walking each line on the board, independently of the
// geometry table. It is the oracle the tests compare s.lines against.
func (s *State) linesFromScratch() []uint8 {
	L, w := s.v.LineLen, s.w
	span := L
	if !s.v.Disjoint {
		span = L - 1
	}
	out := make([]uint8, len(s.lines))
	for id := range out {
		base, d := id/numDirs, id%numDirs
		out[id] = s.lines[id] & lineUsed
		endX, endY := base%w+(L-1)*dirDX[d], base/w+(L-1)*dirDY[d]
		if endX < 0 || endX >= w || endY < 0 || endY >= w {
			continue
		}
		n := L
		for j, c := 0, base; j < L; j, c = j+1, c+dirDY[d]*w+dirDX[d] {
			if s.occ[c] != 0 {
				n--
			}
			if j < span && s.lines[c*numDirs+d]&lineUsed != 0 {
				n += usedUnit
			}
		}
		out[id] |= uint8(n)
	}
	return out
}

// EncodedSize implements game.Sizer: an upper bound on the bytes needed to
// ship this position between cluster processes (occupancy and usage planes
// bit-packed, plus the move sequence). The virtual network model charges
// this per position message.
func (s *State) EncodedSize() int {
	cells := s.w * s.w
	return cells*5/8 + 4*len(s.seq) + 16
}

// --- move encoding -------------------------------------------------------

// A move is packed into a game.Move as:
//
//	bits 0..15  : base cell index (start of the line, lowest point)
//	bits 16..17 : direction
//	bits 18..20 : offset k of the new point within the line (0..LineLen-1)
//
// The base point is the line endpoint with the smallest (y, x), i.e. the
// line extends from base towards +delta.

func packMove(base int, d Dir, k int) game.Move {
	return game.Move(uint64(base) | uint64(d)<<16 | uint64(k)<<18)
}

func unpackMove(m game.Move) (base int, d Dir, k int) {
	return int(m & 0xffff), Dir(m >> 16 & 0x3), int(m >> 18 & 0x7)
}

// MoveParts exposes the decoded move for rendering and notation: the board
// cell of the new point, the line's base cell, its direction and the offset
// of the new point in the line.
func (s *State) MoveParts(m game.Move) (newX, newY, baseX, baseY int, d Dir, k int) {
	base, d, k := unpackMove(m)
	baseX, baseY = base%s.w, base/s.w
	newX = baseX + k*dirDX[d]
	newY = baseY + k*dirDY[d]
	return
}

// --- play / undo ---------------------------------------------------------

// lineMove returns the move of the legal line id: its one empty point is
// the new point.
func (s *State) lineMove(id int) game.Move {
	base, d := id/numDirs, Dir(id%numDirs)
	k := 0
	for c, step := base, s.geo.steps[d]; s.occ[c] != 0; c += step {
		k++
	}
	return packMove(base, d, k)
}

// occupy places a point at cell: every on-board line through it loses an
// empty point.
func (s *State) occupy(cell int) {
	s.occ[cell] = 1
	s.hash ^= s.geo.occKey[cell]
	for _, id := range s.geo.row(cell) {
		if id >= 0 {
			s.lines[id]--
		}
	}
}

// vacate is occupy's inverse.
func (s *State) vacate(cell int) {
	s.occ[cell] = 0
	s.hash ^= s.geo.occKey[cell]
	for _, id := range s.geo.row(cell) {
		if id >= 0 {
			s.lines[id]++
		}
	}
}

// claim sets (delta = usedUnit) or clears (delta = -usedUnit) the usage
// flags of the drawn line (base, d), and adds delta per shared flag to the
// count of every line of direction d that shares some: the line whose base
// is t steps from base shares span-|t| of them.
func (s *State) claim(base int, d Dir, delta int8) {
	g := s.geo
	step := g.steps[d]
	for i, c := 0, base; i < g.span; i, c = i+1, c+step {
		id := c*numDirs + int(d)
		s.lines[id] ^= lineUsed
		s.hash ^= g.usedKey[id]
	}
	// The lines through base at offset k (t = -k), then those through the
	// last flagged cell at offset k < span-1 (t = span-1-k).
	for k, id := range g.blocked(base, d) {
		if id >= 0 {
			s.lines[id] += uint8(delta) * uint8(g.span-k)
		}
	}
	for k, id := range g.blocked(base+(g.span-1)*step, d)[:g.span-1] {
		if id >= 0 {
			s.lines[id] += uint8(delta) * uint8(k+1)
		}
	}
}

// Play applies a legal move: places the new point, claims the line's usage,
// and updates the legal move list incrementally. Playing a move that is not
// currently legal corrupts the position; the search only plays moves it got
// from LegalMoves.
func (s *State) Play(m game.Move) {
	base, d, k := unpackMove(m)
	newCell := base + k*s.stepOf(d)

	s.occupy(newCell)
	s.claim(base, d, usedUnit)
	s.seq = append(s.seq, m)

	// Incremental move list maintenance. A listed move stays legal iff its
	// line byte still counts 1: it drops to 0 when the move's new point was
	// newCell, and gains usedUnit when the move's line shares a point (D) or
	// link (T) with the line just drawn. The only lines that can have become
	// legal pass through newCell, the one cell whose occupancy changed; they
	// are appended in d-major, then offset order. Removed moves go onto the
	// arena stacks so Undo can restore the list in its exact pre-Play order.
	removed := int32(0)
	keep := s.moves[:0]
	for i, mv := range s.moves {
		if s.lines[int(mv&0xffff)*numDirs+int(mv>>16&0x3)]&lineCount != 1 {
			s.histMoves = append(s.histMoves, mv)
			s.histIdx = append(s.histIdx, int32(i))
			removed++
		} else {
			keep = append(keep, mv)
		}
	}
	s.moves = keep
	added := int32(0)
	for _, id := range s.geo.row(newCell) {
		if id >= 0 && s.lines[id]&lineCount == 1 {
			s.moves = append(s.moves, s.lineMove(int(id)))
			added++
		}
	}
	s.hist = append(s.hist, histEntry{move: m, numRemoved: removed, numAdded: added})
}

func (s *State) stepOf(d Dir) int { return s.geo.steps[d] }

// Undo reverts the most recent move, implementing game.Undoer. It panics
// if no move has been played since the position was created or cloned (the
// clone floor — clones drop the history of their source).
func (s *State) Undo() {
	if len(s.hist) == 0 {
		panic("morpion: Undo on initial position or past a clone floor")
	}
	h := s.hist[len(s.hist)-1]
	s.hist = s.hist[:len(s.hist)-1]

	base, d, k := unpackMove(h.move)
	s.claim(base, d, -usedUnit)
	s.vacate(base + k*s.stepOf(d))
	s.seq = s.seq[:len(s.seq)-1]
	// Restore the move list to its exact pre-Play order: drop the appended
	// moves, then reinsert the removed ones (popped off the arena stacks)
	// at their original positions. Ascending insertion order keeps later
	// original indices valid, and the exact order is what makes an undo
	// traversal bit-identical to a clone traversal.
	s.moves = s.moves[:len(s.moves)-int(h.numAdded)]
	lo := len(s.histMoves) - int(h.numRemoved)
	for i := 0; i < int(h.numRemoved); i++ {
		mv := s.histMoves[lo+i]
		idx := int(s.histIdx[lo+i])
		s.moves = append(s.moves, 0)
		copy(s.moves[idx+1:], s.moves[idx:])
		s.moves[idx] = mv
	}
	s.histMoves = s.histMoves[:lo]
	s.histIdx = s.histIdx[:lo]
}

// Reset implements game.Replayer: it rewinds the position to the initial
// cross by undoing every move in the history. Positions obtained by Clone
// only rewind to the clone point, since clones drop history; use New for a
// pristine state.
func (s *State) Reset() {
	for len(s.hist) > 0 {
		s.Undo()
	}
}

var _ game.State = (*State)(nil)
var _ game.Undoer = (*State)(nil)
var _ game.Copier = (*State)(nil)
var _ game.Sizer = (*State)(nil)
var _ game.Replayer = (*State)(nil)
var _ game.Hasher = (*State)(nil)

// RateMoves implements game.MoveRater for the bundled heuristic
// evaluator: moves whose new point lands near the centre of the cross
// get higher weight. Long Morpion games grow the grid outward from the
// centre, and biasing early playout moves inward keeps lines connectable
// longer — a classic hand heuristic for the puzzle. The weight is
// 1/(1+d) for Chebyshev distance d from the board centre; pure and
// allocation-free beyond the appended weights.
func (s *State) RateMoves(moves []game.Move, w []float64) []float64 {
	cx, cy := s.w/2, s.w/2
	for _, m := range moves {
		newX, newY, _, _, _, _ := s.MoveParts(m)
		dx, dy := newX-cx, newY-cy
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		d := dx
		if dy > d {
			d = dy
		}
		w = append(w, 1/float64(1+d))
	}
	return w
}

var _ game.MoveRater = (*State)(nil)
