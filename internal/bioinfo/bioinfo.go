// Package bioinfo implements the bioinformatics workload the paper's
// acceleration plane motivates (Fig. 1a lists "Bioinformatics" among the
// services running on the decoupled programmable hardware plane, and §V
// names it as a multi-FPGA consumer): Smith-Waterman local sequence
// alignment, the canonical FPGA-accelerated kernel.
//
// The alignment itself is computed for real (affine-gap Smith-Waterman
// over DNA alphabets); the FPGA timing model reflects the standard
// systolic-array implementation that computes one anti-diagonal per
// clock, versus cell-at-a-time software.
package bioinfo

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
)

// Base is a nucleotide (0-3 = ACGT).
type Base uint8

// Bases spells the alphabet.
const Bases = "ACGT"

// Sequence is a DNA string.
type Sequence []Base

// String renders the sequence as ACGT text.
func (s Sequence) String() string {
	out := make([]byte, len(s))
	for i, b := range s {
		out[i] = Bases[b&3]
	}
	return string(out)
}

// ParseSequence converts ACGT text.
func ParseSequence(s string) (Sequence, error) {
	out := make(Sequence, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case 'A', 'a':
			out[i] = 0
		case 'C', 'c':
			out[i] = 1
		case 'G', 'g':
			out[i] = 2
		case 'T', 't':
			out[i] = 3
		default:
			return nil, fmt.Errorf("bioinfo: bad base %q", s[i])
		}
	}
	return out, nil
}

// RandomSequence draws n bases.
func RandomSequence(rng *rand.Rand, n int) Sequence {
	out := make(Sequence, n)
	for i := range out {
		out[i] = Base(rng.Intn(4))
	}
	return out
}

// Mutate copies s with the given substitution rate (for generating reads
// that align back to a reference).
func Mutate(rng *rand.Rand, s Sequence, rate float64) Sequence {
	out := append(Sequence(nil), s...)
	for i := range out {
		if rng.Float64() < rate {
			out[i] = Base(rng.Intn(4))
		}
	}
	return out
}

// Scoring holds the alignment parameters.
type Scoring struct {
	Match, Mismatch int
	GapOpen, GapExt int
}

// DefaultScoring returns common DNA parameters.
func DefaultScoring() Scoring {
	return Scoring{Match: 2, Mismatch: -1, GapOpen: -3, GapExt: -1}
}

// Alignment is a Smith-Waterman result.
type Alignment struct {
	Score        int
	QueryEnd     int // 1-based end position in the query
	RefEnd       int // 1-based end position in the reference
	CellsUpdated int // DP work (for cost models)
}

// Align computes affine-gap local alignment of query against ref
// (Gotoh's algorithm, linear memory).
func Align(query, ref Sequence, sc Scoring) Alignment {
	m, n := len(query), len(ref)
	var res Alignment
	if m == 0 || n == 0 {
		return res
	}
	h := make([]int, n+1) // best score ending at (i, j)
	e := make([]int, n+1) // gap-in-query state
	for i := 1; i <= m; i++ {
		f := 0 // gap-in-ref state for this row
		diag := 0
		for j := 1; j <= n; j++ {
			sub := sc.Mismatch
			if query[i-1] == ref[j-1] {
				sub = sc.Match
			}
			hNew := diag + sub
			e[j] = maxInt(e[j]+sc.GapExt, h[j]+sc.GapOpen)
			f = maxInt(f+sc.GapExt, h[j-1]+sc.GapOpen)
			hNew = maxInt(hNew, maxInt(e[j], f))
			if hNew < 0 {
				hNew = 0
			}
			diag = h[j]
			h[j] = hNew
			if hNew > res.Score {
				res.Score = hNew
				res.QueryEnd = i
				res.RefEnd = j
			}
		}
	}
	res.CellsUpdated = m * n
	return res
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// CostModel converts DP work into service times.
type CostModel struct {
	// SwPerCell is the software cost per DP cell (scalar inner loop).
	SwPerCell sim.Time
	// FPGAHz is the systolic array clock; it retires one anti-diagonal
	// (up to min(m, ArrayPEs) cells) per cycle.
	FPGAHz   float64
	ArrayPEs int
	// FPGAFixed covers sequence load/drain.
	FPGAFixed sim.Time
}

// DefaultCostModel calibrates a 200 MHz, 256-PE systolic array against
// ~3 ns/cell software.
func DefaultCostModel() CostModel {
	return CostModel{
		SwPerCell: 3 * sim.Nanosecond,
		FPGAHz:    200e6,
		ArrayPEs:  256,
		FPGAFixed: 2 * sim.Microsecond,
	}
}

// SoftwareTime returns the CPU time to align m x n.
func (cm CostModel) SoftwareTime(m, n int) sim.Time {
	return sim.Time(m*n) * cm.SwPerCell
}

// FPGATime returns the systolic-array time: with m <= ArrayPEs the array
// sweeps the reference in n + m cycles; longer queries tile.
func (cm CostModel) FPGATime(m, n int) sim.Time {
	tiles := (m + cm.ArrayPEs - 1) / cm.ArrayPEs
	cycles := tiles * (n + minInt(m, cm.ArrayPEs))
	return cm.FPGAFixed + sim.Time(float64(cycles)/cm.FPGAHz*float64(sim.Second))
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Speedup reports FPGA vs software for an m x n problem.
func (cm CostModel) Speedup(m, n int) float64 {
	return float64(cm.SoftwareTime(m, n)) / float64(cm.FPGATime(m, n))
}

// Role is the aligner as a shell role: requests carry (query, ref), the
// role computes the real alignment and answers after the systolic-array
// time.
type Role struct {
	sim  *sim.Simulation
	cost CostModel
	sc   Scoring
	busy sim.Time // queue tail (single array, in-order)
	// Aligned counts completed requests.
	Aligned int
}

// NewRole builds an aligner role.
func NewRole(s *sim.Simulation, cost CostModel, sc Scoring) *Role {
	return &Role{sim: s, cost: cost, sc: sc}
}

// EncodeRequest frames (query, ref) for the role.
func EncodeRequest(query, ref Sequence) []byte {
	buf := make([]byte, 4+len(query)+len(ref))
	buf[0] = byte(len(query) >> 8)
	buf[1] = byte(len(query))
	buf[2] = byte(len(ref) >> 8)
	buf[3] = byte(len(ref))
	for i, b := range query {
		buf[4+i] = byte(b)
	}
	for i, b := range ref {
		buf[4+len(query)+i] = byte(b)
	}
	return buf
}

// DecodeResponse parses the role's answer.
func DecodeResponse(buf []byte) (Alignment, bool) {
	if len(buf) < 12 {
		return Alignment{}, false
	}
	get := func(o int) int {
		return int(uint32(buf[o])<<24 | uint32(buf[o+1])<<16 | uint32(buf[o+2])<<8 | uint32(buf[o+3]))
	}
	return Alignment{Score: get(0), QueryEnd: get(4), RefEnd: get(8)}, true
}

// HandleRequest serves one alignment request; loaded into a shell as
// its PCIe handler (a shell.Role) by method value.
func (r *Role) HandleRequest(payload []byte, respond func([]byte)) {
	if len(payload) < 4 {
		respond(nil)
		return
	}
	qLen := int(payload[0])<<8 | int(payload[1])
	rLen := int(payload[2])<<8 | int(payload[3])
	if len(payload) < 4+qLen+rLen {
		respond(nil)
		return
	}
	query := make(Sequence, qLen)
	ref := make(Sequence, rLen)
	for i := range query {
		query[i] = Base(payload[4+i])
	}
	for i := range ref {
		ref[i] = Base(payload[4+qLen+i])
	}
	al := Align(query, ref, r.sc)

	// In-order single systolic array: queue behind prior work.
	service := r.cost.FPGATime(qLen, rLen)
	now := r.sim.Now()
	if r.busy < now {
		r.busy = now
	}
	r.busy += service
	wait := r.busy - now
	r.sim.Schedule(wait, func() {
		r.Aligned++
		out := make([]byte, 12)
		put := func(o, v int) {
			out[o] = byte(v >> 24)
			out[o+1] = byte(v >> 16)
			out[o+2] = byte(v >> 8)
			out[o+3] = byte(v)
		}
		put(0, al.Score)
		put(4, al.QueryEnd)
		put(8, al.RefEnd)
		respond(out)
	})
}
