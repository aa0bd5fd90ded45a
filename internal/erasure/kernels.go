package erasure

import (
	"github.com/agardist/agar/internal/gf256"
	"github.com/agardist/agar/internal/matrix"
)

// tileSize is how many bytes of every chunk code handles before moving on.
const tileSize = 4096

// code sets out[r] = Σ_j m[first+r][j]·in[j] for every non-nil out[r]: the
// one loop behind Split's parity and Decode's reconstruction, and the
// codec's single seam onto the gf256 slice kernels. It walks the chunks
// tile by tile so that a tile of every input stays cache-resident while
// each output row accumulates; a row's first term overwrites, so out needs
// no zeroing.
// Every slice of in and out must have the same length.
func code(m *matrix.Matrix, first int, in, out [][]byte) {
	size := len(in[0])
	for lo := 0; lo < size; lo += tileSize {
		hi := min(lo+tileSize, size)
		for r, dst := range out {
			if dst == nil {
				continue
			}
			row := m.RowView(first + r)
			gf256.MulSlice(row[0], in[0][lo:hi], dst[lo:hi])
			for j := 1; j < len(in); j++ {
				gf256.MulAddSlice(row[j], in[j][lo:hi], dst[lo:hi])
			}
		}
	}
}
