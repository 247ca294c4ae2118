package beagle

import "math"

// Pruning kernels.
//
// PR2 evaluated an internal node as init-to-one plus one full
// multiply-accumulate pass per child, each pass re-deriving its
// per-category matrix slice with a `cell % C` modulo and re-walking
// part. These kernels are fused and blocked: the dominant binary-node
// case computes part = (P₁·c₁) ⊙ (P₂·c₂) in a single sweep (writing
// part once instead of three times), loops run pattern-major with the
// category matrix sliced per cell — no modulo, no init pass — and the
// child-scale addition folds into the same per-pattern iteration.
//
// Every kernel is bit-identical to the PR2 sequence it replaces:
//   - fusion drops only the multiplications by the initial 1.0, and
//     1*a == a exactly in IEEE-754;
//   - per-cell arithmetic keeps the exact left-to-right operation
//     order of the old kernels, and cells are independent, so loop
//     restructuring cannot change any value;
//   - scale folding reorders only additions of +0 (leaf scales are
//     identically zero, and internal scales — sums of negative logs —
//     are never -0), each of which is an IEEE-754 identity.
//
// Kernel naming: fuse = binary write, acc = multiply-accumulate for
// third and later children, write = unary write; I/T = internal/tip
// child; 4 = unrolled nucleotide, G = generic state count.

// childRef describes one child's contribution to a pruning step:
// either an internal child (mats/part/scale) or a tip child
// (tips/idx), never both.
type childRef struct {
	mats  []float64 // internal: per-category S×S transition matrices
	part  []float64 // internal: child conditional likelihoods
	scale []float64 // internal: child per-pattern log scaling
	tips  []float64 // tip: per-(state,category) column tables
	idx   []uint8   // tip: per-pattern table index (S = missing)
}

func (r *childRef) isTip() bool { return r.idx != nil }

// --- 4-state (nucleotide) kernels ---

func fuseII4(part, scale []float64, a, b *childRef, nPat, C int) {
	ap, bp := a.part, b.part
	as, bs := a.scale, b.scale
	for p := 0; p < nPat; p++ {
		scale[p] = as[p] + bs[p]
		base := p * C * 4
		for c := 0; c < C; c++ {
			m := a.mats[c*16 : c*16+16]
			q := b.mats[c*16 : c*16+16]
			i := base + c*4
			a0, a1, a2, a3 := ap[i], ap[i+1], ap[i+2], ap[i+3]
			b0, b1, b2, b3 := bp[i], bp[i+1], bp[i+2], bp[i+3]
			part[i+0] = (m[0]*a0 + m[1]*a1 + m[2]*a2 + m[3]*a3) * (q[0]*b0 + q[1]*b1 + q[2]*b2 + q[3]*b3)
			part[i+1] = (m[4]*a0 + m[5]*a1 + m[6]*a2 + m[7]*a3) * (q[4]*b0 + q[5]*b1 + q[6]*b2 + q[7]*b3)
			part[i+2] = (m[8]*a0 + m[9]*a1 + m[10]*a2 + m[11]*a3) * (q[8]*b0 + q[9]*b1 + q[10]*b2 + q[11]*b3)
			part[i+3] = (m[12]*a0 + m[13]*a1 + m[14]*a2 + m[15]*a3) * (q[12]*b0 + q[13]*b1 + q[14]*b2 + q[15]*b3)
		}
	}
}

func fuseIT4(part, scale []float64, in, tp *childRef, nPat, C int) {
	ap, as := in.part, in.scale
	tips, idx := tp.tips, tp.idx
	for p := 0; p < nPat; p++ {
		scale[p] = as[p]
		ti := int(idx[p]) * C
		base := p * C * 4
		for c := 0; c < C; c++ {
			m := in.mats[c*16 : c*16+16]
			tc := tips[(ti+c)*4 : (ti+c)*4+4]
			i := base + c*4
			a0, a1, a2, a3 := ap[i], ap[i+1], ap[i+2], ap[i+3]
			part[i+0] = (m[0]*a0 + m[1]*a1 + m[2]*a2 + m[3]*a3) * tc[0]
			part[i+1] = (m[4]*a0 + m[5]*a1 + m[6]*a2 + m[7]*a3) * tc[1]
			part[i+2] = (m[8]*a0 + m[9]*a1 + m[10]*a2 + m[11]*a3) * tc[2]
			part[i+3] = (m[12]*a0 + m[13]*a1 + m[14]*a2 + m[15]*a3) * tc[3]
		}
	}
}

func fuseTT4(part, scale []float64, a, b *childRef, nPat, C int) {
	at, ai := a.tips, a.idx
	bt, bi := b.tips, b.idx
	for p := 0; p < nPat; p++ {
		scale[p] = 0
		ta := int(ai[p]) * C
		tb := int(bi[p]) * C
		base := p * C * 4
		for c := 0; c < C; c++ {
			ac := at[(ta+c)*4 : (ta+c)*4+4]
			bc := bt[(tb+c)*4 : (tb+c)*4+4]
			i := base + c*4
			part[i+0] = ac[0] * bc[0]
			part[i+1] = ac[1] * bc[1]
			part[i+2] = ac[2] * bc[2]
			part[i+3] = ac[3] * bc[3]
		}
	}
}

func accI4(part, scale []float64, a *childRef, nPat, C int) {
	ap, as := a.part, a.scale
	for p := 0; p < nPat; p++ {
		scale[p] += as[p]
		base := p * C * 4
		for c := 0; c < C; c++ {
			m := a.mats[c*16 : c*16+16]
			i := base + c*4
			a0, a1, a2, a3 := ap[i], ap[i+1], ap[i+2], ap[i+3]
			part[i+0] *= m[0]*a0 + m[1]*a1 + m[2]*a2 + m[3]*a3
			part[i+1] *= m[4]*a0 + m[5]*a1 + m[6]*a2 + m[7]*a3
			part[i+2] *= m[8]*a0 + m[9]*a1 + m[10]*a2 + m[11]*a3
			part[i+3] *= m[12]*a0 + m[13]*a1 + m[14]*a2 + m[15]*a3
		}
	}
}

func accT4(part []float64, a *childRef, nPat, C int) {
	tips, idx := a.tips, a.idx
	for p := 0; p < nPat; p++ {
		ti := int(idx[p]) * C
		base := p * C * 4
		for c := 0; c < C; c++ {
			tc := tips[(ti+c)*4 : (ti+c)*4+4]
			i := base + c*4
			part[i+0] *= tc[0]
			part[i+1] *= tc[1]
			part[i+2] *= tc[2]
			part[i+3] *= tc[3]
		}
	}
}

// --- generic (amino-acid, codon) kernels ---

// matVec is the one matrix-vector product of the generic kernels: with
// S = len(v) it forms d[s] = Σₓ m[s·S+x]·v[x] for every row s and
// stores it (out[s] = d[s]) or, with mul set, folds it into what out
// already holds (out[s] *= d[s]).
//
// A single row's sum is one chain of dependent additions, so a row at
// a time the loop runs at add latency, not add throughput. Rows are
// independent: four are carried per sweep over v in four accumulators,
// each still adding its own terms x = 0…S−1 left to right, so every
// d[s] is the value the row-at-a-time loop produced, bit for bit
// (kernels_test.go holds that loop as the oracle). Rows past the last
// full tile (S = 61 leaves one) take the plain loop.
func matVec(out, m, v []float64, mul bool) {
	S := len(v)
	out = out[:S]
	s := 0
	for ; s+4 <= S; s += 4 {
		r0 := m[s*S:][:S]
		r1 := m[(s+1)*S:][:S]
		r2 := m[(s+2)*S:][:S]
		r3 := m[(s+3)*S:][:S]
		var d0, d1, d2, d3 float64
		for x, vx := range v {
			d0 += r0[x] * vx
			d1 += r1[x] * vx
			d2 += r2[x] * vx
			d3 += r3[x] * vx
		}
		o := out[s : s+4 : s+4]
		if mul {
			o[0] *= d0
			o[1] *= d1
			o[2] *= d2
			o[3] *= d3
		} else {
			o[0], o[1], o[2], o[3] = d0, d1, d2, d3
		}
	}
	for ; s < S; s++ {
		r := m[s*S:][:S]
		var d float64
		for x, vx := range v {
			d += r[x] * vx
		}
		if mul {
			out[s] *= d
		} else {
			out[s] = d
		}
	}
}

func fuseIIG(part, scale []float64, a, b *childRef, nPat, C, S int) {
	for p := 0; p < nPat; p++ {
		scale[p] = a.scale[p] + b.scale[p]
		for c := 0; c < C; c++ {
			base := (p*C + c) * S
			m1 := a.mats[c*S*S:]
			m2 := b.mats[c*S*S:]
			out := part[base : base+S]
			matVec(out, m1, a.part[base:base+S], false)
			matVec(out, m2, b.part[base:base+S], true)
		}
	}
}

func fuseITG(part, scale []float64, in, tp *childRef, nPat, C, S int) {
	tips, idx := tp.tips, tp.idx
	for p := 0; p < nPat; p++ {
		scale[p] = in.scale[p]
		ti := int(idx[p]) * C
		for c := 0; c < C; c++ {
			base := (p*C + c) * S
			tc := tips[(ti+c)*S : (ti+c)*S+S]
			out := part[base : base+S]
			matVec(out, in.mats[c*S*S:], in.part[base:base+S], false)
			for s := range out {
				out[s] *= tc[s]
			}
		}
	}
}

func fuseTTG(part, scale []float64, a, b *childRef, nPat, C, S int) {
	at, ai := a.tips, a.idx
	bt, bi := b.tips, b.idx
	for p := 0; p < nPat; p++ {
		scale[p] = 0
		ta := int(ai[p]) * C
		tb := int(bi[p]) * C
		for c := 0; c < C; c++ {
			base := (p*C + c) * S
			ac := at[(ta+c)*S : (ta+c)*S+S]
			bc := bt[(tb+c)*S : (tb+c)*S+S]
			out := part[base : base+S]
			for s := 0; s < S; s++ {
				out[s] = ac[s] * bc[s]
			}
		}
	}
}

func accIG(part, scale []float64, a *childRef, nPat, C, S int) {
	for p := 0; p < nPat; p++ {
		scale[p] += a.scale[p]
		for c := 0; c < C; c++ {
			base := (p*C + c) * S
			matVec(part[base:base+S], a.mats[c*S*S:], a.part[base:base+S], true)
		}
	}
}

func accTG(part []float64, a *childRef, nPat, C, S int) {
	tips, idx := a.tips, a.idx
	for p := 0; p < nPat; p++ {
		ti := int(idx[p]) * C
		for c := 0; c < C; c++ {
			base := (p*C + c) * S
			tc := tips[(ti+c)*S : (ti+c)*S+S]
			out := part[base : base+S]
			for s := 0; s < S; s++ {
				out[s] *= tc[s]
			}
		}
	}
}

// --- unary-child kernels (degenerate nodes from hand-built trees) ---

func writeI(part, scale []float64, a *childRef, nPat, C, S int) {
	copy(scale[:nPat], a.scale)
	for p := 0; p < nPat; p++ {
		for c := 0; c < C; c++ {
			base := (p*C + c) * S
			matVec(part[base:base+S], a.mats[c*S*S:], a.part[base:base+S], false)
		}
	}
}

func writeT(part, scale []float64, a *childRef, nPat, C, S int) {
	tips, idx := a.tips, a.idx
	for p := 0; p < nPat; p++ {
		scale[p] = 0
		ti := int(idx[p]) * C
		for c := 0; c < C; c++ {
			base := (p*C + c) * S
			tc := tips[(ti+c)*S : (ti+c)*S+S]
			copy(part[base:base+S], tc)
		}
	}
}

// rescale guards against underflow on deep trees: a pattern whose
// largest partial lies in (0, 1e-100) is divided by that maximum and
// its log added to the pattern's scale. A pattern holding any value
// ≥ 1e-100 is never rescaled, so the scan stops at the first such
// value; almost every pattern has one early, and a pattern that is
// rescaled is scanned in full, so it divides by its true maximum. A
// NaN never raises the maximum and +Inf stops the scan, so both leave a
// pattern as a full scan would (kernels_test.go holds that scan as the
// oracle).
func rescale(part, scale []float64, nPat, C, S int) {
	stride := C * S
	for p := 0; p < nPat; p++ {
		base := p * stride
		maxv := 0.0
		for _, v := range part[base : base+stride] {
			if v > maxv {
				maxv = v
				if maxv >= 1e-100 {
					break
				}
			}
		}
		if maxv > 0 && maxv < 1e-100 {
			inv := 1 / maxv
			for i := base; i < base+stride; i++ {
				part[i] *= inv
			}
			scale[p] += math.Log(maxv)
		}
	}
}
