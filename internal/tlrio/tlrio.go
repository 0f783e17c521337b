// Package tlrio serializes TLR-compressed kernels to the paged "TLRP"
// binary format. The paper's pre-processing compresses 230 frequency
// matrices once on the host and reuses them across thousands of
// virtual-source inversions; a production deployment therefore needs a
// durable on-disk representation of the compressed operator. The format
// (paged.go) is little-endian, versioned, page-aligned per tile and
// CRC-checked, and is the one container every reader in the tree —
// opstore, mddserve -store-dir, mddrun -store, tlrtool — speaks.
package tlrio

import (
	"errors"

	"repro/internal/tlr"
)

// ErrChecksum is the sentinel wrapped by every CRC-mismatch error this
// package returns (header, index and per-page CRC-32C alike), so callers
// can distinguish media corruption from structural decode failures with
// errors.Is.
var ErrChecksum = errors.New("tlrio: checksum mismatch")

// maxDim bounds decoded dimensions to keep corrupted headers from
// attempting absurd allocations.
const maxDim = 1 << 24

// Kernel is a stack of compressed frequency matrices with their
// frequencies, the unit of §6.1's pre-processed dataset.
type Kernel struct {
	Freqs []float64
	Mats  []*tlr.Matrix
}
