package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/geom"
)

// Input generation is frozen and self-contained: it uses neither
// math/rand nor internal/workload, so no engine or toolchain change can
// move the load. TestInputsGolden pins a hash of everything generated
// for seed 1985.

// frame is the coordinate frame of every generated picture.
var frame = geom.R(0, 0, 1000, 1000)

// hotRect is where 90% of mixed_sharded's inserts land: one sixteenth
// of the frame, wholly inside the first Hilbert-range shard.
var hotRect = geom.R(0, 0, 250, 250)

// rng is splitmix64.
type rng struct{ s uint64 }

// newRNG derives an independent stream per (seed, purpose) so adding a
// generator never shifts the values of another.
func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03}
	r.u64()
	return r
}

func (r *rng) u64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.u64()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.u64() % uint64(n)) }

// norm is a bounded approximate standard normal (Irwin–Hall, 12
// uniforms): exact arithmetic only, so it is identical on every
// platform.
func (r *rng) norm() float64 {
	s := -6.0
	for i := 0; i < 12; i++ {
		s += r.float()
	}
	return s
}

// round3 snaps v to the 1/1000 grid, so a coordinate printed into a
// statement parses back to the value the replay uses.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

func clampFrame(v float64) float64 { return math.Min(math.Max(v, 0), 1000) }

// row is one generated point tuple (name, pop, loc).
type row struct {
	name string
	pop  int64
	pt   geom.Point
}

// region is one generated rectangle tuple (tag, kind, loc).
type region struct {
	tag  string
	kind int64
	rect geom.Rect
}

func (r *rng) row(prefix string, i int, pt geom.Point) row {
	return row{name: prefix + strconv.Itoa(1_000_000 + i)[1:], pop: int64(r.intn(1_000_000)), pt: pt}
}

// clusteredRows draws n points from k Gaussian-like clusters, the
// shape of cartographic data.
func clusteredRows(r *rng, n, k int, prefix string) []row {
	type cluster struct {
		c     geom.Point
		sigma float64
	}
	cl := make([]cluster, k)
	for i := range cl {
		cl[i] = cluster{c: geom.Pt(100+800*r.float(), 100+800*r.float()), sigma: 15 + 25*r.float()}
	}
	rows := make([]row, n)
	for i := range rows {
		c := cl[i%k]
		pt := geom.Pt(round3(clampFrame(c.c.X+c.sigma*r.norm())), round3(clampFrame(c.c.Y+c.sigma*r.norm())))
		rows[i] = r.row(prefix, i, pt)
	}
	return rows
}

func uniformRow(r *rng, within geom.Rect, prefix string, i int) row {
	pt := geom.Pt(round3(within.Min.X+within.Width()*r.float()), round3(within.Min.Y+within.Height()*r.float()))
	return r.row(prefix, i, pt)
}

func uniformRows(r *rng, n int, prefix string) []row {
	rows := make([]row, n)
	for i := range rows {
		rows[i] = uniformRow(r, frame, prefix, i)
	}
	return rows
}

// stmtKind tells the traced run which engine calls to replay.
type stmtKind uint8

const (
	kindWindow stmtKind = iota // point-in-window direct search
	kindJuxta                  // juxtaposition of sites and regions
	kindNested                 // nested mapping: regions in a window drive the sites search
)

// stmt is one pre-rendered PSQL statement plus what the replay needs.
type stmt struct {
	text string
	kind stmtKind
	win  geom.Rect // the at-clause window (kindWindow, kindNested's inner)
	k    int64     // the where-clause constant
}

func fmtNum(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// windowStmt renders the paper's point-in-window mapping over
// rel(name, pop, loc) on pic.
func windowStmt(rel, pic string, c geom.Point, dx, dy float64, k int64) stmt {
	dx, dy = round3(dx), round3(dy)
	return stmt{
		text: fmt.Sprintf("select name, pop from %s on %s at loc covered-by {%s±%s, %s±%s} where pop > %d",
			rel, pic, fmtNum(c.X), fmtNum(dx), fmtNum(c.Y), fmtNum(dy), k),
		kind: kindWindow,
		win:  geom.WindowAt(c.X, dx, c.Y, dy),
		k:    k,
	}
}

// windowStmts renders n window statements, each a square centred on a
// data point and sized to hold exactly wantSmall index candidates (9 in
// 10) or wantLarge (1 in 10), so the work per statement is the same at
// every seed. With hotEvery > 0 every hotEvery-th window, and no other,
// is centred inside hotRect.
func windowStmts(r *rng, n int, rel, pic string, rows []row, wantSmall, wantLarge, hotEvery int) []stmt {
	out := make([]stmt, n)
	pts := byX(rows)
	for i := range out {
		want := wantSmall
		if i%10 == 9 {
			want = wantLarge
		}
		want = min(want, len(rows)/2)
		j := r.intn(len(rows))
		for hotEvery > 0 && hotRect.ContainsPoint(rows[j].pt) != (i%hotEvery == 0) {
			j = r.intn(len(rows))
		}
		half := nthNearest(pts, rows[j].pt, want)
		out[i] = windowStmt(rel, pic, rows[j].pt, half, half, int64(200_000+r.intn(400_000)))
	}
	return out
}

// byX is a relation's points in ascending x, the order nthNearest
// searches.
func byX(rows []row) []geom.Point {
	pts := make([]geom.Point, len(rows))
	for i, r := range rows {
		pts[i] = r.pt
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	return pts
}

// nthNearest returns the half-width of the smallest square window on c
// that holds n of pts (which are in ascending x).
func nthNearest(pts []geom.Point, c geom.Point, n int) float64 {
	for reach := 1.0; ; reach *= 2 {
		var dist []float64
		from := sort.Search(len(pts), func(i int) bool { return pts[i].X >= c.X-reach })
		for _, p := range pts[from:] {
			if p.X > c.X+reach {
				break
			}
			if d := math.Max(math.Abs(p.X-c.X), math.Abs(p.Y-c.Y)); d <= reach {
				dist = append(dist, d)
			}
		}
		if len(dist) >= n {
			sort.Float64s(dist)
			// Coordinates lie on the 1/1000 grid; half a step of slack
			// keeps the n-th point inside after rounding.
			return dist[n-1] + 0.0005
		}
	}
}

// inputs is everything one workload feeds the engine.
type inputs struct {
	base    []row     // points loaded before timing
	regions []region  // join_nested's second relation
	stmts   []stmt    // distinct statements
	seqs    [][]int32 // per reader client: indices into stmts, cycled
	seed    int64
	hotSkew bool // the writer's rows: 9 in 10 inside hotRect
}

// sizes are the frozen workload dimensions; quick divides them by 100.
type sizes struct {
	base, regions int
	hot, cold     int // statement texts: cache-hit set, distinct set
	seqLen        int
	writes        int // rows the writer's sequence is topped up to after timing
	clusters      int
}

var fullSizes = map[string]sizes{
	"window_read":    {base: 200_000, hot: 64, cold: 4_096, seqLen: 65_536, clusters: 50},
	"join_nested":    {base: 50_000, regions: 2_000, hot: 255, seqLen: 4_096, clusters: 50},
	"durable_ingest": {base: 50_000, hot: 128, seqLen: 32, writes: 96_000},
	"mixed_sharded":  {base: 50_000, hot: 64, cold: 4_096, seqLen: 16_384, writes: 96_000},
}

func sizesFor(workload string, quick bool) sizes {
	s := fullSizes[workload]
	if quick {
		s.base = max(s.base/100, 400)
		s.regions /= 100
		s.cold /= 100
		s.seqLen = max(s.seqLen/100, 32)
		s.writes /= 100
		s.clusters = max(s.clusters/10, 1)
	}
	return s
}

// hotColdSeq is a reader's statement order: 4 in 5 draws come from the
// hot set (statement-cache hits), the rest walk the cold set in order
// (each text is gone from the 128-entry cache long before it recurs).
func hotColdSeq(r *rng, n, hot, cold, coldFrom int) []int32 {
	seq := make([]int32, n)
	next := coldFrom
	for i := range seq {
		if cold == 0 || r.intn(5) != 0 {
			seq[i] = int32(r.intn(hot))
		} else {
			seq[i] = int32(hot + next%cold)
			next++
		}
	}
	return seq
}

func generate(workload string, seed int64, quick bool) *inputs {
	sz := sizesFor(workload, quick)
	in := &inputs{seed: seed}
	data, text, order := newRNG(seed, 1), newRNG(seed, 2), newRNG(seed, 3)
	switch workload {
	case "window_read":
		in.base = clusteredRows(data, sz.base, sz.clusters, "c")
		in.stmts = windowStmts(text, sz.hot+sz.cold, "cities", "citymap", in.base, 30, 750, 0)
		for c := 0; c < 2; c++ {
			in.seqs = append(in.seqs, hotColdSeq(order, sz.seqLen, sz.hot, sz.cold, c*sz.cold/2))
		}
	case "join_nested":
		in.base = clusteredRows(data, sz.base, sz.clusters, "s")
		in.regions = make([]region, sz.regions)
		pts := byX(in.base)
		for i := range in.regions {
			// A rectangle sits on a data point and covers exactly 8, so
			// the join yields the same number of pairs at every seed.
			c := in.base[data.intn(len(in.base))].pt
			half := nthNearest(pts, c, 8)
			in.regions[i] = region{
				tag:  "r" + strconv.Itoa(100_000 + i)[1:],
				kind: int64(i % 64),
				rect: geom.R(round3(c.X-half), round3(c.Y-half), round3(c.X+half), round3(c.Y+half)),
			}
		}
		// Two juxtapositions to one nested mapping, in the statement list
		// and in each client's order: the median then lies inside the
		// juxtaposition's latency mode, not between the two modes.
		for i := 0; i < sz.hot; i++ {
			if i%3 != 2 {
				k := int64(i % 64)
				in.stmts = append(in.stmts, stmt{kind: kindJuxta, k: k, text: fmt.Sprintf(
					"select sites.name, regions.tag from sites, regions on sitemap, regionmap "+
						"at sites.loc covered-by regions.loc where regions.kind = %d and sites.pop > %d", k, 1000*(i/64))})
				continue
			}
			// The window sits on a region whose kind passes the inner
			// where-clause, so the nested mapping always yields a loc.
			g := in.regions[text.intn(len(in.regions))]
			half := round3(10 + 20*text.float())
			c, k := g.rect.Center(), g.kind+1+int64(text.intn(int(64-g.kind)))
			c = geom.Pt(round3(c.X), round3(c.Y))
			in.stmts = append(in.stmts, stmt{kind: kindNested, k: k, win: geom.WindowAt(c.X, half, c.Y, half), text: fmt.Sprintf(
				"select name from sites on sitemap at loc covered-by "+
					"(select loc from regions on regionmap at loc overlapping {%s±%s, %s±%s} where kind < %d)",
				fmtNum(c.X), fmtNum(half), fmtNum(c.Y), fmtNum(half), k)})
		}
		for c := 0; c < 2; c++ {
			seq := make([]int32, sz.seqLen)
			for i := range seq {
				seq[i] = int32(3*order.intn(sz.hot/3) + i%3)
			}
			in.seqs = append(in.seqs, seq)
		}
	case "durable_ingest":
		in.base = uniformRows(data, sz.base, "c")
		// The read-back sample run before Close and after reopen.
		in.stmts = windowStmts(text, sz.hot, "cities", "citymap", in.base, 30, 750, 0)
		in.seqs = [][]int32{hotColdSeq(order, sz.seqLen, sz.hot, 0, 0)}
	case "mixed_sharded":
		// Uniform, so the share of statements that land on the hot shard
		// does not depend on where a seed puts its clusters.
		in.base = uniformRows(data, sz.base, "c")
		in.hotSkew = true
		// One statement in 16 reads where the writer writes, as hotRect is
		// one sixteenth of the frame; fixing which ones keeps a seed from
		// deciding how many cached statements grow with the ingest.
		in.stmts = windowStmts(text, sz.hot+sz.cold, "cities", "citymap", in.base, 30, 750, 16)
		in.seqs = [][]int32{hotColdSeq(order, sz.seqLen, sz.hot, sz.cold, 0)}
	default:
		panic("pictbench: unknown workload " + workload)
	}
	return in
}

// writeRow is the i-th row the writer inserts: a pure function of the
// seed and i, so the writer never runs out and nothing is stored.
func (in *inputs) writeRow(i int) row {
	r := newRNG(in.seed, 1_000+uint64(i))
	within := frame
	if in.hotSkew && r.intn(10) != 0 {
		within = hotRect
	}
	return uniformRow(r, within, "w", i)
}

// hash digests every generated input in a fixed order.
func (in *inputs) hash() string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	rows := func(rs []row) {
		u64(uint64(len(rs)))
		for _, r := range rs {
			str(r.name)
			u64(uint64(r.pop))
			u64(math.Float64bits(r.pt.X))
			u64(math.Float64bits(r.pt.Y))
		}
	}
	rows(in.base)
	writes := make([]row, 1024)
	for i := range writes {
		writes[i] = in.writeRow(i)
	}
	rows(writes)
	u64(uint64(len(in.regions)))
	for _, g := range in.regions {
		str(g.tag)
		u64(uint64(g.kind))
		for _, v := range [4]float64{g.rect.Min.X, g.rect.Min.Y, g.rect.Max.X, g.rect.Max.Y} {
			u64(math.Float64bits(v))
		}
	}
	u64(uint64(len(in.stmts)))
	for _, s := range in.stmts {
		str(s.text)
	}
	for _, seq := range in.seqs {
		u64(uint64(len(seq)))
		for _, i := range seq {
			u64(uint64(i))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
