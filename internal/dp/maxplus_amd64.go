//go:build !race

package dp

// avx2 reports whether the CPU has AVX2 and the OS saves the YMM registers
// (CPUID leaf 1: OSXSAVE and AVX, XCR0: SSE and AVX state, leaf 7: AVX2).
var avx2 = func() bool {
	leaves, _, _, _ := cpuid(0, 0)
	_, _, ecx, _ := cpuid(1, 0)
	if leaves < 7 || ecx&(1<<27) == 0 || ecx&(1<<28) == 0 || xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}()

// maxPlus sweeps the first multiple of eight cells of out with the AVX2
// body, when the CPU has one, and the rest with the portable body.
func maxPlus(out, left, cells []int32, stride int) {
	if w := len(out) &^ 7; avx2 && w > 0 && len(left) > 0 {
		_ = cells[(len(left)-1)*stride:][:w] // the vector body reads unchecked
		maxPlusAVX2(&out[0], &left[0], &cells[0], w, len(left), stride)
		if w == len(out) {
			return
		}
		out, cells = out[w:], cells[w:]
	}
	maxPlusGo(out, left, cells, stride)
}

// maxPlusAVX2 is maxPlus over out[:w] for w a positive multiple of 8 and
// h > 0 source rows, four rows to a pass.
//
//go:noescape
func maxPlusAVX2(out, left, cells *int32, w, h, stride int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() uint32

// scan is the wave scan over north: the first multiple of eight cells with
// the AVX2 body when the CPU has one and k is exact, the rest portably.
func (k wave) scan(out, north []int32, b []byte, a byte, west, diag int32) {
	if w := len(north) &^ 7; avx2 && k.exact && w > 0 {
		_, _ = out[w-1], b[w-1] // the vector body reads and writes unchecked
		waveAVX2(&out[0], &north[0], &b[0], w, a, west, diag, k.match, k.mismatch, k.gap, k.flip)
		west, diag, out, north, b = out[w-1], north[w-1], out[w:], north[w:], b[w:]
	}
	k.scanGo(out, north, b, a, west, diag)
}

// waveAVX2 is the wave scan over n cells, n a positive multiple of 8.
//
//go:noescape
func waveAVX2(out, north *int32, b *byte, n int, a byte, west, diag, match, mismatch, gap, flip int32)
