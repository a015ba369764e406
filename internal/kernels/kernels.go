// Package kernels provides the benchmark DDG suite used by the experiments:
// hand-built data dependence graphs of the loop bodies the paper evaluates
// on (Livermore loops, Linpack, Whetstone, SpecFP-like kernels), plus the
// paper's Figure 2 example and synthetic stress shapes.
//
// The paper extracted these DAGs with a compiler front end; we rebuild them
// from the published kernel sources with a classic latency model (loads 4,
// fadd 3, fmul 4, fdiv 17 — the 17 matches the paper's Figure 2 long-latency
// operation). Loop-invariant operands and live-in arrays are register-
// allocated outside the body and therefore are not value nodes, exactly as
// in a loop-body DAG; where a kernel keeps an invariant in a register we
// model its (re)materialization explicitly so that multi-consumer values
// with non-trivial potential-killer sets appear, which is what makes RS
// analysis interesting.
package kernels

import (
	"fmt"
	"sort"

	"regsat/internal/ddg"
)

// Latencies of the generic machine model.
const (
	LatLoad  = 4
	LatStore = 1
	LatFAdd  = 3
	LatFMul  = 4
	LatFDiv  = 17
	LatIAdd  = 1
	LatIMul  = 3
	LatCopy  = 1
)

func opLatency(op string) int64 {
	switch op {
	case "load":
		return LatLoad
	case "store":
		return LatStore
	case "fadd", "fsub":
		return LatFAdd
	case "fmul":
		return LatFMul
	case "fdiv":
		return LatFDiv
	case "iadd", "isub", "ldc":
		return LatIAdd
	case "imul":
		return LatIMul
	case "copy", "fldc":
		return LatCopy
	default:
		return 1
	}
}

// Spec describes one benchmark kernel.
type Spec struct {
	Name        string
	Suite       string // "linpack", "livermore", "whetstone", "specfp", "synthetic", "paper"
	Description string
	Build       func(machine ddg.MachineKind) *ddg.Graph
}

// builder wraps ddg.Graph construction with the latency table and machine-
// dependent offsets: on VLIW the result register is written δw = latency
// cycles after issue; superscalar and EPIC write offsets are zero.
type builder struct {
	g *ddg.Graph
	m ddg.MachineKind
}

func newBuilder(name string, m ddg.MachineKind) *builder {
	return &builder{g: ddg.New(name, m), m: m}
}

// typeOf returns the single register type written by node id.
func (b *builder) typeOf(id int) ddg.RegType {
	for _, w := range b.g.Node(id).Writes {
		return w.Type
	}
	panic(fmt.Sprintf("kernels: node %s writes no value", b.g.Node(id).Name))
}

// val adds an operation producing a value of type t, with flow edges from
// each producer in deps.
func (b *builder) val(name, op string, t ddg.RegType, deps ...int) int {
	lat := opLatency(op)
	id := b.g.AddNode(name, op, lat)
	var dw int64
	if b.m == ddg.VLIW {
		dw = lat
	}
	b.g.SetWrites(id, t, dw)
	for _, d := range deps {
		b.g.AddFlowEdge(d, id, b.typeOf(d))
	}
	return id
}

// op adds a non-value operation (e.g. a store) consuming deps.
func (b *builder) op(name, op string, deps ...int) int {
	id := b.g.AddNode(name, op, opLatency(op))
	for _, d := range deps {
		b.g.AddFlowEdge(d, id, b.typeOf(d))
	}
	return id
}

func (b *builder) finish() *ddg.Graph {
	if err := b.g.Finalize(); err != nil {
		panic(fmt.Sprintf("kernels: %s: %v", b.g.Name, err))
	}
	return b.g
}

// ---------------------------------------------------------------------------
// Paper example

// Figure2 is a behavioural reconstruction of the paper's Figure 2 DAG: four
// values a (latency 17), b, c, d (latency 1) with independent consumers, so
// that some schedule keeps all four simultaneously alive (RS = 4) while
// serialization arcs can reduce the saturation. See EXPERIMENTS.md for the
// reconstruction argument.
func Figure2(m ddg.MachineKind) *ddg.Graph {
	b := newBuilder("fig2", m)
	a := b.val("a", "fdiv", ddg.Float) // latency 17
	v1 := b.val("b", "copy", ddg.Float)
	v2 := b.val("c", "copy", ddg.Float)
	v3 := b.val("d", "copy", ddg.Float)
	b.op("sa", "store", a)
	b.op("sb", "store", v1)
	b.op("sc", "store", v2)
	b.op("sd", "store", v3)
	return b.finish()
}

// ---------------------------------------------------------------------------
// Linpack

func daxpy(m ddg.MachineKind) *ddg.Graph {
	// y[i] = y[i] + a*x[i], with pointer increments kept in int registers.
	b := newBuilder("lin-daxpy", m)
	ax := b.val("ax", "iadd", ddg.Int) // address of x[i]
	ay := b.val("ay", "iadd", ddg.Int) // address of y[i]
	lx := b.val("lx", "load", ddg.Float, ax)
	ly := b.val("ly", "load", ddg.Float, ay)
	mul := b.val("mul", "fmul", ddg.Float, lx)
	sum := b.val("sum", "fadd", ddg.Float, ly, mul)
	b.op("st", "store", sum, ay)
	b.val("axn", "iadd", ddg.Int, ax) // next x address (exit value)
	b.val("ayn", "iadd", ddg.Int, ay) // next y address (exit value)
	return b.finish()
}

func ddot(m ddg.MachineKind) *ddg.Graph {
	// s += x[i]*y[i] unrolled twice with a reduction tree.
	b := newBuilder("lin-ddot", m)
	ax := b.val("ax", "iadd", ddg.Int)
	ay := b.val("ay", "iadd", ddg.Int)
	lx1 := b.val("lx1", "load", ddg.Float, ax)
	ly1 := b.val("ly1", "load", ddg.Float, ay)
	lx2 := b.val("lx2", "load", ddg.Float, ax)
	ly2 := b.val("ly2", "load", ddg.Float, ay)
	m1 := b.val("m1", "fmul", ddg.Float, lx1, ly1)
	m2 := b.val("m2", "fmul", ddg.Float, lx2, ly2)
	p := b.val("p", "fadd", ddg.Float, m1, m2)
	b.val("acc", "fadd", ddg.Float, p) // s += p (s is live-in, result exits)
	b.val("axn", "iadd", ddg.Int, ax)
	b.val("ayn", "iadd", ddg.Int, ay)
	return b.finish()
}

func dscal(m ddg.MachineKind) *ddg.Graph {
	// x[i] = a*x[i] unrolled twice.
	b := newBuilder("lin-dscal", m)
	ax := b.val("ax", "iadd", ddg.Int)
	l1 := b.val("l1", "load", ddg.Float, ax)
	l2 := b.val("l2", "load", ddg.Float, ax)
	m1 := b.val("m1", "fmul", ddg.Float, l1)
	m2 := b.val("m2", "fmul", ddg.Float, l2)
	b.op("st1", "store", m1, ax)
	b.op("st2", "store", m2, ax)
	b.val("axn", "iadd", ddg.Int, ax)
	return b.finish()
}

// ---------------------------------------------------------------------------
// Livermore loops

func livL1(m ddg.MachineKind) *ddg.Graph {
	// Hydro fragment: x[k] = q + y[k]*(r*z[k+10] + t*z[k+11]).
	b := newBuilder("liv-l1", m)
	az := b.val("az", "iadd", ddg.Int)
	lz10 := b.val("lz10", "load", ddg.Float, az)
	lz11 := b.val("lz11", "load", ddg.Float, az)
	ly := b.val("ly", "load", ddg.Float)
	m1 := b.val("m1", "fmul", ddg.Float, lz10) // r*z[k+10]
	m2 := b.val("m2", "fmul", ddg.Float, lz11) // t*z[k+11]
	a1 := b.val("a1", "fadd", ddg.Float, m1, m2)
	m3 := b.val("m3", "fmul", ddg.Float, ly, a1)
	a2 := b.val("a2", "fadd", ddg.Float, m3) // q + …
	b.op("st", "store", a2)
	b.val("azn", "iadd", ddg.Int, az)
	return b.finish()
}

func livL2(m ddg.MachineKind) *ddg.Graph {
	// ICCG excerpt: x[i] = x[i] − v[i]*x[i−1] − w[i]*x[i+1].
	b := newBuilder("liv-l2", m)
	lx := b.val("lx", "load", ddg.Float)
	lxm := b.val("lxm", "load", ddg.Float)
	lxp := b.val("lxp", "load", ddg.Float)
	lv := b.val("lv", "load", ddg.Float)
	lw := b.val("lw", "load", ddg.Float)
	m1 := b.val("m1", "fmul", ddg.Float, lv, lxm)
	m2 := b.val("m2", "fmul", ddg.Float, lw, lxp)
	s1 := b.val("s1", "fsub", ddg.Float, lx, m1)
	s2 := b.val("s2", "fsub", ddg.Float, s1, m2)
	b.op("st", "store", s2)
	return b.finish()
}

func livL3(m ddg.MachineKind) *ddg.Graph {
	// Inner product: q += z[k]*x[k], unrolled twice.
	b := newBuilder("liv-l3", m)
	lz1 := b.val("lz1", "load", ddg.Float)
	lx1 := b.val("lx1", "load", ddg.Float)
	lz2 := b.val("lz2", "load", ddg.Float)
	lx2 := b.val("lx2", "load", ddg.Float)
	m1 := b.val("m1", "fmul", ddg.Float, lz1, lx1)
	m2 := b.val("m2", "fmul", ddg.Float, lz2, lx2)
	a1 := b.val("a1", "fadd", ddg.Float, m1, m2)
	b.val("q", "fadd", ddg.Float, a1)
	return b.finish()
}

func livL5(m ddg.MachineKind) *ddg.Graph {
	// Tri-diagonal elimination: x[i] = z[i]*(y[i] − x[i−1]).
	b := newBuilder("liv-l5", m)
	ly := b.val("ly", "load", ddg.Float)
	lz := b.val("lz", "load", ddg.Float)
	lxm := b.val("lxm", "load", ddg.Float)
	s := b.val("s", "fsub", ddg.Float, ly, lxm)
	p := b.val("p", "fmul", ddg.Float, lz, s)
	b.op("st", "store", p)
	return b.finish()
}

func livL7(m ddg.MachineKind) *ddg.Graph {
	// Equation of state fragment (large expression; the invariants r, t, q
	// are rematerialized into registers, giving multi-consumer values):
	// x[k] = u[k] + r*(z[k] + r*y[k])
	//             + t*(u[k+3] + r*(u[k+2] + r*u[k+1])
	//                  + t*(u[k+6] + q*(u[k+5] + q*u[k+4]))).
	b := newBuilder("liv-l7", m)
	r := b.val("r", "fldc", ddg.Float)
	tt := b.val("t", "fldc", ddg.Float)
	q := b.val("q", "fldc", ddg.Float)
	lu := b.val("lu", "load", ddg.Float)
	lz := b.val("lz", "load", ddg.Float)
	ly := b.val("ly", "load", ddg.Float)
	lu1 := b.val("lu1", "load", ddg.Float)
	lu2 := b.val("lu2", "load", ddg.Float)
	lu3 := b.val("lu3", "load", ddg.Float)
	lu4 := b.val("lu4", "load", ddg.Float)
	lu5 := b.val("lu5", "load", ddg.Float)
	lu6 := b.val("lu6", "load", ddg.Float)
	m1 := b.val("m1", "fmul", ddg.Float, r, ly)   // r*y
	a1 := b.val("a1", "fadd", ddg.Float, lz, m1)  // z + r*y
	m2 := b.val("m2", "fmul", ddg.Float, r, lu1)  // r*u1
	a2 := b.val("a2", "fadd", ddg.Float, lu2, m2) // u2 + r*u1
	m3 := b.val("m3", "fmul", ddg.Float, r, a2)   // r*(…)
	a3 := b.val("a3", "fadd", ddg.Float, lu3, m3) // u3 + …
	m4 := b.val("m4", "fmul", ddg.Float, q, lu4)  // q*u4
	a4 := b.val("a4", "fadd", ddg.Float, lu5, m4) // u5 + q*u4
	m5 := b.val("m5", "fmul", ddg.Float, q, a4)   // q*(…)
	a5 := b.val("a5", "fadd", ddg.Float, lu6, m5) // u6 + …
	m6 := b.val("m6", "fmul", ddg.Float, tt, a5)  // t*e3
	a6 := b.val("a6", "fadd", ddg.Float, a3, m6)  // e2 + t*e3
	m7 := b.val("m7", "fmul", ddg.Float, tt, a6)  // t*(…)
	m8 := b.val("m8", "fmul", ddg.Float, r, a1)   // r*e1
	a7 := b.val("a7", "fadd", ddg.Float, lu, m8)  // u + r*e1
	a8 := b.val("a8", "fadd", ddg.Float, a7, m7)  // + t*(…)
	b.op("st", "store", a8)
	return b.finish()
}

func livL11(m ddg.MachineKind) *ddg.Graph {
	// First sum: x[k] = x[k−1] + y[k].
	b := newBuilder("liv-l11", m)
	lxm := b.val("lxm", "load", ddg.Float)
	ly := b.val("ly", "load", ddg.Float)
	s := b.val("s", "fadd", ddg.Float, lxm, ly)
	b.op("st", "store", s)
	b.val("ak", "iadd", ddg.Int)
	return b.finish()
}

func livL12(m ddg.MachineKind) *ddg.Graph {
	// First difference: x[k] = y[k+1] − y[k], unrolled twice sharing loads.
	b := newBuilder("liv-l12", m)
	ly0 := b.val("ly0", "load", ddg.Float)
	ly1 := b.val("ly1", "load", ddg.Float)
	ly2 := b.val("ly2", "load", ddg.Float)
	d1 := b.val("d1", "fsub", ddg.Float, ly1, ly0)
	d2 := b.val("d2", "fsub", ddg.Float, ly2, ly1)
	b.op("st1", "store", d1)
	b.op("st2", "store", d2)
	return b.finish()
}

func livL4(m ddg.MachineKind) *ddg.Graph {
	// Banded linear equations kernel: x[k] −= g[j]*x[j] three times, fused.
	b := newBuilder("liv-l4", m)
	lx := b.val("lx", "load", ddg.Float)
	g1 := b.val("g1", "load", ddg.Float)
	x1 := b.val("x1", "load", ddg.Float)
	g2 := b.val("g2", "load", ddg.Float)
	x2 := b.val("x2", "load", ddg.Float)
	g3 := b.val("g3", "load", ddg.Float)
	x3 := b.val("x3", "load", ddg.Float)
	m1 := b.val("m1", "fmul", ddg.Float, g1, x1)
	m2 := b.val("m2", "fmul", ddg.Float, g2, x2)
	m3 := b.val("m3", "fmul", ddg.Float, g3, x3)
	s1 := b.val("s1", "fsub", ddg.Float, lx, m1)
	s2 := b.val("s2", "fsub", ddg.Float, s1, m2)
	s3 := b.val("s3", "fsub", ddg.Float, s2, m3)
	b.op("st", "store", s3)
	return b.finish()
}

func livL9(m ddg.MachineKind) *ddg.Graph {
	// Integrate predictors: px[i] = sum of six weighted history terms.
	// The three invariant coefficients live in registers with multiple
	// consumers — a dense potential-killer structure.
	b := newBuilder("liv-l9", m)
	c1 := b.val("c1", "fldc", ddg.Float)
	c2 := b.val("c2", "fldc", ddg.Float)
	c3 := b.val("c3", "fldc", ddg.Float)
	var terms []int
	for i := 0; i < 6; i++ {
		l := b.val(fmt.Sprintf("h%d", i), "load", ddg.Float)
		coef := []int{c1, c2, c3}[i%3]
		terms = append(terms, b.val(fmt.Sprintf("w%d", i), "fmul", ddg.Float, coef, l))
	}
	a1 := b.val("a1", "fadd", ddg.Float, terms[0], terms[1])
	a2 := b.val("a2", "fadd", ddg.Float, terms[2], terms[3])
	a3 := b.val("a3", "fadd", ddg.Float, terms[4], terms[5])
	a4 := b.val("a4", "fadd", ddg.Float, a1, a2)
	a5 := b.val("a5", "fadd", ddg.Float, a4, a3)
	b.op("st", "store", a5)
	return b.finish()
}

func livL10(m ddg.MachineKind) *ddg.Graph {
	// Difference predictors: a chain of successive differences, each also
	// stored back — long chain with many short stored lifetimes.
	b := newBuilder("liv-l10", m)
	ar := b.val("ar", "load", ddg.Float)
	prev := ar
	for i := 0; i < 5; i++ {
		br := b.val(fmt.Sprintf("br%d", i), "load", ddg.Float)
		d := b.val(fmt.Sprintf("d%d", i), "fsub", ddg.Float, prev, br)
		b.op(fmt.Sprintf("st%d", i), "store", d)
		prev = d
	}
	return b.finish()
}

func livL18(m ddg.MachineKind) *ddg.Graph {
	// 2-D explicit hydrodynamics fragment: velocity update from four
	// pressure/viscosity neighbours.
	b := newBuilder("liv-l18", m)
	s := b.val("s", "fldc", ddg.Float)
	zu := b.val("zu", "load", ddg.Float)
	za1 := b.val("za1", "load", ddg.Float)
	za2 := b.val("za2", "load", ddg.Float)
	zb1 := b.val("zb1", "load", ddg.Float)
	zb2 := b.val("zb2", "load", ddg.Float)
	zz1 := b.val("zz1", "load", ddg.Float)
	zz2 := b.val("zz2", "load", ddg.Float)
	d1 := b.val("d1", "fsub", ddg.Float, za1, za2)
	d2 := b.val("d2", "fsub", ddg.Float, zb1, zb2)
	d3 := b.val("d3", "fsub", ddg.Float, zz1, zz2)
	m1 := b.val("m1", "fmul", ddg.Float, d1, d2)
	a1 := b.val("a1", "fadd", ddg.Float, m1, d3)
	m2 := b.val("m2", "fmul", ddg.Float, s, a1)
	un := b.val("un", "fadd", ddg.Float, zu, m2)
	b.op("st", "store", un)
	return b.finish()
}

func daxpyU4(m ddg.MachineKind) *ddg.Graph {
	// daxpy unrolled 4×: the bandwidth-bound shape registers actually
	// pressure on — 8 parallel loads and 4 independent mul/add pairs.
	b := newBuilder("lin-daxpy-u4", m)
	ax := b.val("ax", "iadd", ddg.Int)
	ay := b.val("ay", "iadd", ddg.Int)
	for i := 0; i < 4; i++ {
		lx := b.val(fmt.Sprintf("lx%d", i), "load", ddg.Float, ax)
		ly := b.val(fmt.Sprintf("ly%d", i), "load", ddg.Float, ay)
		mul := b.val(fmt.Sprintf("m%d", i), "fmul", ddg.Float, lx)
		sum := b.val(fmt.Sprintf("s%d", i), "fadd", ddg.Float, ly, mul)
		b.op(fmt.Sprintf("st%d", i), "store", sum, ay)
	}
	b.val("axn", "iadd", ddg.Int, ax)
	b.val("ayn", "iadd", ddg.Int, ay)
	return b.finish()
}

// ---------------------------------------------------------------------------
// Whetstone

func whetP3(m ddg.MachineKind) *ddg.Graph {
	// Whetstone module 3 body (t fixed): e1[j] computations
	// e1 = (e1 + e2 + e3 − e4)*t ; e2 = (e1 + e2 − e3 + e4)*t ; …
	b := newBuilder("whet-p3", m)
	t := b.val("t", "fldc", ddg.Float)
	e1 := b.val("e1", "load", ddg.Float)
	e2 := b.val("e2", "load", ddg.Float)
	e3 := b.val("e3", "load", ddg.Float)
	e4 := b.val("e4", "load", ddg.Float)
	s1 := b.val("s1", "fadd", ddg.Float, e1, e2)
	s2 := b.val("s2", "fadd", ddg.Float, s1, e3)
	s3 := b.val("s3", "fsub", ddg.Float, s2, e4)
	n1 := b.val("n1", "fmul", ddg.Float, s3, t)
	s4 := b.val("s4", "fadd", ddg.Float, n1, e2)
	s5 := b.val("s5", "fsub", ddg.Float, s4, e3)
	s6 := b.val("s6", "fadd", ddg.Float, s5, e4)
	n2 := b.val("n2", "fmul", ddg.Float, s6, t)
	b.op("st1", "store", n1)
	b.op("st2", "store", n2)
	return b.finish()
}

func whetP8(m ddg.MachineKind) *ddg.Graph {
	// Procedure P8-like body with a division chain:
	// x = t*(x + y); y = t*(x + y); z = (x + y)/t2.
	b := newBuilder("whet-p8", m)
	t := b.val("t", "fldc", ddg.Float)
	t2 := b.val("t2", "fldc", ddg.Float)
	x := b.val("x", "load", ddg.Float)
	y := b.val("y", "load", ddg.Float)
	a1 := b.val("a1", "fadd", ddg.Float, x, y)
	x1 := b.val("x1", "fmul", ddg.Float, t, a1)
	a2 := b.val("a2", "fadd", ddg.Float, x1, y)
	y1 := b.val("y1", "fmul", ddg.Float, t, a2)
	a3 := b.val("a3", "fadd", ddg.Float, x1, y1)
	z := b.val("z", "fdiv", ddg.Float, a3, t2)
	b.op("st", "store", z)
	return b.finish()
}

func whetP4(m ddg.MachineKind) *ddg.Graph {
	// Integer arithmetic module: j = j*(k−j)*(l−k); k = l*k − (l−j)*k; …
	// exercises the int register type with shared subexpressions.
	b := newBuilder("whet-p4", m)
	j := b.val("j", "load", ddg.Int)
	k := b.val("k", "load", ddg.Int)
	l := b.val("l", "load", ddg.Int)
	d1 := b.val("d1", "isub", ddg.Int, k, j)
	d2 := b.val("d2", "isub", ddg.Int, l, k)
	m1 := b.val("m1", "imul", ddg.Int, j, d1)
	j1 := b.val("j1", "imul", ddg.Int, m1, d2)
	m2 := b.val("m2", "imul", ddg.Int, l, k)
	d3 := b.val("d3", "isub", ddg.Int, l, j1)
	m3 := b.val("m3", "imul", ddg.Int, d3, k)
	k1 := b.val("k1", "isub", ddg.Int, m2, m3)
	b.op("st1", "store", j1)
	b.op("st2", "store", k1)
	return b.finish()
}

// ---------------------------------------------------------------------------
// SpecFP-like kernels

func swimStencil(m ddg.MachineKind) *ddg.Graph {
	// SWIM-like shallow-water stencil:
	// unew = uold + tdts8*(z(i,j+1)+z(i,j))*(cv(i,j+1)+cv(i,j))
	//             − tdtsdx*(h(i+1,j)−h(i,j)).
	b := newBuilder("spec-swim", m)
	t8 := b.val("t8", "fldc", ddg.Float)
	tdx := b.val("tdx", "fldc", ddg.Float)
	lz1 := b.val("lz1", "load", ddg.Float)
	lz2 := b.val("lz2", "load", ddg.Float)
	lcv1 := b.val("lcv1", "load", ddg.Float)
	lcv2 := b.val("lcv2", "load", ddg.Float)
	lh1 := b.val("lh1", "load", ddg.Float)
	lh2 := b.val("lh2", "load", ddg.Float)
	lu := b.val("lu", "load", ddg.Float)
	az := b.val("az", "fadd", ddg.Float, lz1, lz2)
	acv := b.val("acv", "fadd", ddg.Float, lcv1, lcv2)
	mzc := b.val("mzc", "fmul", ddg.Float, az, acv)
	m8 := b.val("m8", "fmul", ddg.Float, t8, mzc)
	dh := b.val("dh", "fsub", ddg.Float, lh1, lh2)
	mdx := b.val("mdx", "fmul", ddg.Float, tdx, dh)
	a1 := b.val("a1", "fadd", ddg.Float, lu, m8)
	un := b.val("un", "fsub", ddg.Float, a1, mdx)
	b.op("st", "store", un)
	return b.finish()
}

func tomcatvBody(m ddg.MachineKind) *ddg.Graph {
	// TOMCATV-like mesh residual: two coupled expressions sharing temps.
	b := newBuilder("spec-tomcatv", m)
	lx1 := b.val("lx1", "load", ddg.Float)
	lx2 := b.val("lx2", "load", ddg.Float)
	lx3 := b.val("lx3", "load", ddg.Float)
	ly1 := b.val("ly1", "load", ddg.Float)
	ly2 := b.val("ly2", "load", ddg.Float)
	ly3 := b.val("ly3", "load", ddg.Float)
	xx := b.val("xx", "fsub", ddg.Float, lx3, lx1) // x(i+1)−x(i−1)
	yx := b.val("yx", "fsub", ddg.Float, ly3, ly1)
	xy := b.val("xy", "fsub", ddg.Float, lx2, lx1)
	yy := b.val("yy", "fsub", ddg.Float, ly2, ly1)
	a := b.val("a", "fmul", ddg.Float, xx, xx)
	bb := b.val("bb", "fmul", ddg.Float, yx, yx)
	aa := b.val("aa", "fadd", ddg.Float, a, bb)
	c := b.val("c", "fmul", ddg.Float, xy, xy)
	d := b.val("d", "fmul", ddg.Float, yy, yy)
	cc := b.val("cc", "fadd", ddg.Float, c, d)
	pxy := b.val("pxy", "fmul", ddg.Float, xx, xy)
	qxy := b.val("qxy", "fmul", ddg.Float, yx, yy)
	bbb := b.val("bbb", "fadd", ddg.Float, pxy, qxy)
	b.op("st1", "store", aa)
	b.op("st2", "store", cc)
	b.op("st3", "store", bbb)
	return b.finish()
}

func fpppChain(m ddg.MachineKind) *ddg.Graph {
	// FPPPP-like long dependence chain with divisions and a shared scale.
	b := newBuilder("spec-fpppp", m)
	sc := b.val("sc", "fldc", ddg.Float)
	l1 := b.val("l1", "load", ddg.Float)
	l2 := b.val("l2", "load", ddg.Float)
	l3 := b.val("l3", "load", ddg.Float)
	d1 := b.val("d1", "fdiv", ddg.Float, l1, sc)
	m1 := b.val("m1", "fmul", ddg.Float, d1, l2)
	a1 := b.val("a1", "fadd", ddg.Float, m1, l3)
	d2 := b.val("d2", "fdiv", ddg.Float, a1, sc)
	m2 := b.val("m2", "fmul", ddg.Float, d2, d1)
	b.op("st", "store", m2)
	return b.finish()
}

func mgridResidual(m ddg.MachineKind) *ddg.Graph {
	// MGRID-like 3-D residual: r = v − a0*u(center) − a1*Σ(face neighbours).
	b := newBuilder("spec-mgrid", m)
	a0 := b.val("a0", "fldc", ddg.Float)
	a1 := b.val("a1", "fldc", ddg.Float)
	lv := b.val("lv", "load", ddg.Float)
	uc := b.val("uc", "load", ddg.Float)
	f1 := b.val("f1", "load", ddg.Float)
	f2 := b.val("f2", "load", ddg.Float)
	f3 := b.val("f3", "load", ddg.Float)
	f4 := b.val("f4", "load", ddg.Float)
	s1 := b.val("sum1", "fadd", ddg.Float, f1, f2)
	s2 := b.val("sum2", "fadd", ddg.Float, f3, f4)
	s3 := b.val("sum3", "fadd", ddg.Float, s1, s2)
	t0 := b.val("t0", "fmul", ddg.Float, a0, uc)
	t1 := b.val("t1", "fmul", ddg.Float, a1, s3)
	r1 := b.val("r1", "fsub", ddg.Float, lv, t0)
	r2 := b.val("r2", "fsub", ddg.Float, r1, t1)
	b.op("st", "store", r2)
	return b.finish()
}

func su2corComplexMAC(m ddg.MachineKind) *ddg.Graph {
	// SU2COR-like complex multiply-accumulate:
	// (cr,ci) += (ar,ai) * (br,bi).
	b := newBuilder("spec-su2cor", m)
	ar := b.val("ar", "load", ddg.Float)
	ai := b.val("ai", "load", ddg.Float)
	br := b.val("br", "load", ddg.Float)
	bi := b.val("bi", "load", ddg.Float)
	cr := b.val("cr", "load", ddg.Float)
	ci := b.val("ci", "load", ddg.Float)
	m1 := b.val("m1", "fmul", ddg.Float, ar, br)
	m2 := b.val("m2", "fmul", ddg.Float, ai, bi)
	m3 := b.val("m3", "fmul", ddg.Float, ar, bi)
	m4 := b.val("m4", "fmul", ddg.Float, ai, br)
	rr := b.val("rr", "fsub", ddg.Float, m1, m2)
	ri := b.val("ri", "fadd", ddg.Float, m3, m4)
	nr := b.val("nr", "fadd", ddg.Float, cr, rr)
	ni := b.val("ni", "fadd", ddg.Float, ci, ri)
	b.op("st1", "store", nr)
	b.op("st2", "store", ni)
	return b.finish()
}

// ---------------------------------------------------------------------------
// Synthetic stress shapes

func wideLoads(m ddg.MachineKind) *ddg.Graph {
	// Eight independent loads into one reduction tree: high saturation.
	b := newBuilder("syn-wide8", m)
	var loads []int
	for i := 0; i < 8; i++ {
		loads = append(loads, b.val(fmt.Sprintf("l%d", i), "load", ddg.Float))
	}
	lvl1 := make([]int, 0, 4)
	for i := 0; i < 8; i += 2 {
		lvl1 = append(lvl1, b.val(fmt.Sprintf("a%d", i/2), "fadd", ddg.Float, loads[i], loads[i+1]))
	}
	b1 := b.val("b0", "fadd", ddg.Float, lvl1[0], lvl1[1])
	b2 := b.val("b1", "fadd", ddg.Float, lvl1[2], lvl1[3])
	r := b.val("r", "fadd", ddg.Float, b1, b2)
	b.op("st", "store", r)
	return b.finish()
}

func chain(m ddg.MachineKind) *ddg.Graph {
	// Pure dependence chain: saturation is minimal (≤ 2).
	b := newBuilder("syn-chain6", m)
	prev := b.val("c0", "load", ddg.Float)
	for i := 1; i < 6; i++ {
		prev = b.val(fmt.Sprintf("c%d", i), "fadd", ddg.Float, prev)
	}
	b.op("st", "store", prev)
	return b.finish()
}

func forkJoin(m ddg.MachineKind) *ddg.Graph {
	// One producer fans out to four consumers that rejoin: the producer's
	// value has four potential killers.
	b := newBuilder("syn-fork4", m)
	src := b.val("src", "load", ddg.Float)
	var mids []int
	for i := 0; i < 4; i++ {
		mids = append(mids, b.val(fmt.Sprintf("f%d", i), "fmul", ddg.Float, src))
	}
	j1 := b.val("j1", "fadd", ddg.Float, mids[0], mids[1])
	j2 := b.val("j2", "fadd", ddg.Float, mids[2], mids[3])
	r := b.val("r", "fadd", ddg.Float, j1, j2)
	b.op("st", "store", r)
	return b.finish()
}

func diamondLadder(m ddg.MachineKind) *ddg.Graph {
	// Stacked diamonds: interleavable lifetimes at every level.
	b := newBuilder("syn-diamond", m)
	top := b.val("t0", "load", ddg.Float)
	for i := 0; i < 3; i++ {
		l := b.val(fmt.Sprintf("l%d", i), "fmul", ddg.Float, top)
		r := b.val(fmt.Sprintf("r%d", i), "fadd", ddg.Float, top)
		top = b.val(fmt.Sprintf("t%d", i+1), "fadd", ddg.Float, l, r)
	}
	b.op("st", "store", top)
	return b.finish()
}

func mixedTypes(m ddg.MachineKind) *ddg.Graph {
	// Address arithmetic (int) interleaved with float compute: exercises
	// multi-type RS analysis.
	b := newBuilder("syn-mixed", m)
	a0 := b.val("a0", "iadd", ddg.Int)
	a1 := b.val("a1", "iadd", ddg.Int, a0)
	a2 := b.val("a2", "imul", ddg.Int, a1)
	l0 := b.val("l0", "load", ddg.Float, a0)
	l1 := b.val("l1", "load", ddg.Float, a1)
	l2 := b.val("l2", "load", ddg.Float, a2)
	f0 := b.val("f0", "fmul", ddg.Float, l0, l1)
	f1 := b.val("f1", "fadd", ddg.Float, f0, l2)
	b.op("st", "store", f1, a2)
	b.val("a3", "iadd", ddg.Int, a2)
	return b.finish()
}

// ---------------------------------------------------------------------------

// All returns the full kernel suite in deterministic order.
func All() []Spec {
	specs := []Spec{
		{"fig2", "paper", "Figure 2 example: four values, one long latency", Figure2},
		{"lin-daxpy", "linpack", "y[i] += a*x[i] with address updates", daxpy},
		{"lin-daxpy-u4", "linpack", "daxpy unrolled 4x (high bandwidth)", daxpyU4},
		{"lin-ddot", "linpack", "dot product, unrolled twice", ddot},
		{"lin-dscal", "linpack", "x[i] = a*x[i], unrolled twice", dscal},
		{"liv-l1", "livermore", "hydro fragment", livL1},
		{"liv-l2", "livermore", "ICCG excerpt", livL2},
		{"liv-l3", "livermore", "inner product", livL3},
		{"liv-l4", "livermore", "banded linear equations", livL4},
		{"liv-l5", "livermore", "tri-diagonal elimination", livL5},
		{"liv-l7", "livermore", "equation of state (large expression)", livL7},
		{"liv-l9", "livermore", "integrate predictors (shared coefficients)", livL9},
		{"liv-l10", "livermore", "difference predictors (stored chain)", livL10},
		{"liv-l11", "livermore", "first sum", livL11},
		{"liv-l12", "livermore", "first difference", livL12},
		{"liv-l18", "livermore", "2-D explicit hydrodynamics fragment", livL18},
		{"whet-p3", "whetstone", "module 3 arithmetic mix", whetP3},
		{"whet-p4", "whetstone", "integer arithmetic module", whetP4},
		{"whet-p8", "whetstone", "procedure with divisions", whetP8},
		{"spec-swim", "specfp", "shallow water stencil", swimStencil},
		{"spec-tomcatv", "specfp", "mesh residual with shared temps", tomcatvBody},
		{"spec-fpppp", "specfp", "long chain with divisions", fpppChain},
		{"spec-mgrid", "specfp", "3-D residual stencil", mgridResidual},
		{"spec-su2cor", "specfp", "complex multiply-accumulate", su2corComplexMAC},
		{"syn-wide8", "synthetic", "eight parallel loads, reduction tree", wideLoads},
		{"syn-chain6", "synthetic", "pure dependence chain", chain},
		{"syn-fork4", "synthetic", "fan-out/fan-in, 4 potential killers", forkJoin},
		{"syn-diamond", "synthetic", "stacked diamonds", diamondLadder},
		{"syn-mixed", "synthetic", "int address + float compute", mixedTypes},
	}
	sort.SliceStable(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs
}

// ByName returns the kernel spec with the given name.
func ByName(name string) (Spec, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// ByNameMust is ByName for known-good names (panics otherwise); convenient
// in examples and benchmarks.
func ByNameMust(name string) Spec {
	s, ok := ByName(name)
	if !ok {
		panic(fmt.Sprintf("kernels: unknown kernel %q", name))
	}
	return s
}

// Suite builds every kernel for the given machine kind.
func Suite(machine ddg.MachineKind) []*ddg.Graph {
	specs := All()
	out := make([]*ddg.Graph, len(specs))
	for i, s := range specs {
		out[i] = s.Build(machine)
	}
	return out
}
