package dp

// maxPlus(out, left, cells, stride) offers left[x] + cells[x*stride+t] to
// each out[t], for every x: the tropical (max, +) sweep that every scan of
// the paper's two applications is. Nussinov's split points sweep row k+1
// of a band, offered F[i,k]; SWGG's column above sweeps row r, offered the
// gap it closes, and its row to the left (and each finalized group, offered
// to the cells after it) a stride-0 ramp row -t*GapExt. Every candidate is
// weighed one by one and int32 sums wrap, so any order of the sweep answers
// bit for bit the same. On amd64 with AVX2, outside race builds, a vector
// body (maxplus_amd64.s) sweeps eight cells per instruction; the portable
// body below runs everywhere else and on the width's tail.

// sweep bounds the scratch rows a kernel builds on its stack for maxPlus:
// a longer scan is swept a chunk at a time.
const sweep = 256

// group is how many cells of a row segment SWGG's and Nussinov's Row
// finalize at once: the cells of a group offer themselves to each other
// (settle), then to every cell after the group in one maxPlus of group
// source rows instead of one each. It is the vector body's lane count, so
// a segment a multiple of eight wide leaves every group's targets so too,
// and the sweep no tail.
const group = 8

// settle finalizes a group, out, left to right: cell y weighs
// out[x] + tile[y][x] of each earlier cell x, final by then.
func settle(out []int32, tile *[group][group]int32) {
	for y := 1; y < len(out); y++ {
		c, terms := out[y], tile[y][:y]
		for x, o := range out[:y] {
			c = max(c, o+terms[x])
		}
		out[y] = c
	}
}

// maxPlusGo is the portable body of maxPlus: four source rows share a pass
// over out.
func maxPlusGo(out, left, cells []int32, stride int) {
	w, x := len(out), 0
	for ; x+4 <= len(left); x += 4 {
		l := left[x : x+4]
		h0, h1 := cells[x*stride:][:w], cells[(x+1)*stride:][:w]
		h2, h3 := cells[(x+2)*stride:][:w], cells[(x+3)*stride:][:w]
		for t := range out {
			if c := max(l[0]+h0[t], l[1]+h1[t], l[2]+h2[t], l[3]+h3[t]); c > out[t] {
				out[t] = c
			}
		}
	}
	for ; x < len(left); x++ {
		l := left[x]
		for t, h := range cells[x*stride:][:w] {
			if c := l + h; c > out[t] {
				out[t] = c
			}
		}
	}
}
