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
