package geom

// The Hilbert curve mapping lives in geom — below pack and workload —
// so both the packing strategies and the skewed-workload generators
// can derive curve keys without importing each other.

// HilbertOrder is the resolution of the discrete grid points are
// quantized onto: the curve has 2^HilbertOrder cells per side.
const HilbertOrder = 16

// HilbertKeyBits is the width of the key space HilbertKey maps into:
// keys lie in [0, 1<<HilbertKeyBits). Hilbert-range sharding divides
// this space into contiguous per-shard ranges.
const HilbertKeyBits = 2 * HilbertOrder

// HilbertKey quantizes p onto the Hilbert curve over bounds and
// returns its 1-D curve distance — the routing key Hilbert-range
// sharding assigns tuples by. Points outside bounds are clamped, so
// every point gets a key and contiguous key ranges stay spatially
// local (Bos & Haverkort's locality bound). The key is a pure function
// of (bounds, p): routing is deterministic across processes and
// reopens as long as the picture extent is stable.
func HilbertKey(bounds Rect, p Point) uint64 {
	side := uint32(1) << HilbertOrder
	x, y := uint32(0), uint32(0)
	if w := bounds.Width(); w > 0 {
		x = hilbertQuantize((p.X - bounds.Min.X) / w * float64(side-1))
	}
	if h := bounds.Height(); h > 0 {
		y = hilbertQuantize((p.Y - bounds.Min.Y) / h * float64(side-1))
	}
	return HilbertD(HilbertOrder, x, y)
}

// hilbertQuantize clamps a scaled coordinate onto the grid.
func hilbertQuantize(v float64) uint32 {
	if v <= 0 {
		return 0
	}
	max := float64(uint32(1)<<HilbertOrder - 1)
	if v >= max {
		return uint32(max)
	}
	return uint32(v)
}

// HilbertD maps grid cell (x, y) to its 1-D distance along the Hilbert
// curve of the given order, 0 <= order <= HilbertOrder; bits of x and y
// at or above order are ignored. It is the classic xy2d conversion read
// four curve levels at a time from hilbertTable. An order below
// HilbertOrder is the full order's curve on the cell's lowest corner,
// shifted: the levels below order add less than one cell of it.
func HilbertD(order uint, x, y uint32) uint64 {
	if order > HilbertOrder {
		panic("geom: Hilbert order above HilbertOrder")
	}
	x <<= HilbertOrder - order
	y <<= HilbertOrder - order
	var d uint64
	state := uint16(0)
	for shift := HilbertOrder - 4; shift >= 0; shift -= 4 {
		e := hilbertTable[state<<8|uint16(x>>shift&15)<<4|uint16(y>>shift&15)]
		d = d<<8 | uint64(e&0xff)
		state = e >> 8
	}
	return d >> (2 * (HilbertOrder - order))
}

// hilbertTable[state<<8 | xn<<4 | yn] is the xy2d walk over four curve
// levels: the 8 bits of distance that the nibbles xn and yn of x and y
// add, and, above them, the state the next four levels start in. A
// state is the flip the levels above left on the cell's coordinates,
// bit 0 for a swap of x and y and bit 1 for a complement of both; the
// two commute, so four states are all there are.
var hilbertTable = func() (t [4 << 8]uint16) {
	for state := range 4 {
		for xy := range 256 {
			s := state
			var d int
			for bit := 3; bit >= 0; bit-- {
				rx, ry := xy>>(4+bit)&1, xy>>bit&1
				if s&2 != 0 {
					rx, ry = rx^1, ry^1
				}
				if s&1 != 0 {
					rx, ry = ry, rx
				}
				d = d<<2 | (3*rx ^ ry)
				if ry == 0 {
					s ^= 1 | rx<<1
				}
			}
			t[state<<8|xy] = uint16(s<<8 | d)
		}
	}
	return t
}()
