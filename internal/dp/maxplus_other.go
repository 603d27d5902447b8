//go:build !amd64 || race

package dp

// maxPlus runs the portable body: there is no vector body off amd64, and a
// race build lets the detector see every cell a kernel reads and writes.
func maxPlus(out, left, cells []int32, stride int) { maxPlusGo(out, left, cells, stride) }

// scan runs the wave scan's portable body, for the same reasons.
func (k wave) scan(out, north []int32, b []byte, a byte, west, diag int32) {
	k.scanGo(out, north, b, a, west, diag)
}
