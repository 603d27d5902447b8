package matrix

import (
	"fmt"

	"repro/internal/dag"
)

// Content-keyed wire format for task inputs, used when the cross-job
// result cache is on. It differs from the plain EncodeBlocks layout in
// two ways: every record carries the block's 32-byte content key, and a
// record may be a *reference* — the key and rect alone, no cells — naming
// a block the receiver provably already holds, so a content-identical
// block is never reshipped.
//
// The format is distinguished by the leading count, written as -(n+1):
// always negative, even for zero records, so the receiver can tell keyed
// payloads apart (and knows to record block keys) without any
// out-of-band flag. A plain-format decoder rejects the negative count
// loudly, which is the desired failure mode for version skew.
//
// Record layout after the count: a blockHeader, then the 32-byte key. A
// negative Rows field marks a reference (the true row count is -Rows and
// no cells follow); a positive Rows field is a full block, cells
// following as in the plain format.

// KeyedBlock pairs a block with its content key for the keyed format.
type KeyedBlock[T any] struct {
	Key   [32]byte
	Block *Block[T]
}

// BlockRef names a block by rect and content key, without its cells.
type BlockRef struct {
	Key  [32]byte
	Rect dag.Rect
}

// EncodeBlocksKeyed serializes full blocks and references in the keyed
// format. Receivers resolve each record in order, so the concatenation
// full-then-refs is the decoded block order.
func EncodeBlocksKeyed[T any](c Codec[T], full []KeyedBlock[T], refs []BlockRef) ([]byte, error) {
	n := len(full) + len(refs)
	size := countSize + n*(headerSize+keySize)
	for _, kb := range full {
		size += len(kb.Block.Cells) * c.CellSize()
	}
	dst := appendInt32(newPayload(size), -(n + 1))
	for _, kb := range full {
		var err error
		dst = appendHeader(dst, kb.Block.Rect, kb.Block.Rect.Rows)
		dst = append(dst, kb.Key[:]...)
		if dst, err = c.AppendCells(dst, kb.Block.Cells); err != nil {
			return nil, err
		}
	}
	for _, ref := range refs {
		dst = appendHeader(dst, ref.Rect, -ref.Rect.Rows)
		dst = append(dst, ref.Key[:]...)
	}
	return dst, nil
}

// DecodeBlocksAny is DecodeTask resolving references by key alone, none if nil.
func DecodeBlocksAny[T any](c Codec[T], data []byte, resolve func([32]byte) (*Block[T], bool), record func([32]byte, *Block[T])) (blocks []*Block[T], keyed bool, err error) {
	return DecodeTask(c, data, func(ref BlockRef) (*Block[T], bool) {
		if resolve == nil {
			return nil, false
		}
		return resolve(ref.Key)
	}, record)
}

// DecodeTask decodes a task's data region in either wire format. Plain
// payloads behave exactly like DecodeBlocks and touch neither callback. For
// keyed payloads, each full block is reported through record (nil is
// allowed) before being returned, and each reference is resolved through
// resolve (not nil), handed its key and rect; a miss is an error — a
// reference the receiver cannot resolve means the sender's known-set
// diverged, which must fail loudly rather than compute on garbage. keyed
// reports which format was seen.
func DecodeTask[T any](c Codec[T], data []byte, resolve func(BlockRef) (*Block[T], bool), record func([32]byte, *Block[T])) (blocks []*Block[T], keyed bool, err error) {
	n, rest, err := readCount(data)
	if err != nil {
		return nil, false, err
	}
	if keyed = n < 0; keyed {
		n = -n - 1
	}
	blocks, err = decodeRecords(c, rest, n, keyed, resolve, record)
	return blocks, keyed, err
}

// resolveRef hands back the block a reference record names, which must
// cover exactly the record's rect.
func resolveRef[T any](rect dag.Rect, key [32]byte, resolve func(BlockRef) (*Block[T], bool)) (*Block[T], error) {
	if rect.Rows <= 0 || rect.Cols <= 0 {
		return nil, fmt.Errorf("matrix: invalid block reference %x header %+v", key[:6], rect)
	}
	b, ok := resolve(BlockRef{Key: key, Rect: rect})
	if !ok {
		return nil, fmt.Errorf("matrix: unresolvable block reference %x (rect %d,%d %dx%d)", key[:6], rect.Row0, rect.Col0, rect.Rows, rect.Cols)
	}
	if b.Rect != rect {
		return nil, fmt.Errorf("matrix: block reference %x resolved to rect %+v, want %+v", key[:6], b.Rect, rect)
	}
	return b, nil
}
