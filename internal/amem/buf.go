package amem

import (
	"encoding/binary"
	"fmt"
)

// BufMemory is an abstract memory backed by a byte slice with a byte
// order. It serves one space (plus immediate fetches) and is used for
// contexts, for tests, and as the process-side memory of the simulated
// machines.
type BufMemory struct {
	Label string
	Space Space
	Order binary.ByteOrder
	// Base is subtracted from absolute offsets before indexing Data, so
	// a BufMemory can present a window of a larger address space.
	Base int64
	Data []byte
}

// NewBufMemory returns a BufMemory of n bytes serving the given space.
func NewBufMemory(space Space, order binary.ByteOrder, n int) *BufMemory {
	return &BufMemory{Label: "buf", Space: space, Order: order, Data: make([]byte, n)}
}

// Name implements Memory.
func (m *BufMemory) Name() string {
	if m.Label != "" {
		return m.Label
	}
	return "buf"
}

func (m *BufMemory) slice(loc Location, size int) ([]byte, error) {
	if loc.Space != m.Space {
		return nil, fmt.Errorf("%w: %s in %s memory", ErrBadSpace, loc, m.Name())
	}
	off := loc.Offset - m.Base
	if off < 0 || off+int64(size) > int64(len(m.Data)) {
		return nil, fmt.Errorf("%w: %s size %d in %s memory", ErrOutOfRange, loc, size, m.Name())
	}
	return m.Data[off : off+int64(size)], nil
}

// FetchInt implements Memory.
func (m *BufMemory) FetchInt(loc Location, size int) (uint64, error) {
	if err := checkIntSize(size); err != nil {
		return 0, err
	}
	if loc.Mode == Immediate {
		return truncInt(loc.Imm, size), nil
	}
	b, err := m.slice(loc, size)
	if err != nil {
		return 0, err
	}
	return ReadInt(m.Order, b), nil
}

// StoreInt implements Memory.
func (m *BufMemory) StoreInt(loc Location, size int, val uint64) error {
	if err := checkIntSize(size); err != nil {
		return err
	}
	if loc.Mode == Immediate {
		return ErrImmStore
	}
	b, err := m.slice(loc, size)
	if err != nil {
		return err
	}
	WriteInt(m.Order, b, val)
	return nil
}

// FetchFloat implements Memory.
func (m *BufMemory) FetchFloat(loc Location, size int) (float64, error) {
	if err := checkFloatSize(size); err != nil {
		return 0, err
	}
	if loc.Mode == Immediate {
		return loc.ImmF, nil
	}
	b, err := m.slice(loc, floatStorageSize(size))
	if err != nil {
		return 0, err
	}
	return DecodeFloat(m.Order, b, size), nil
}

// StoreFloat implements Memory.
func (m *BufMemory) StoreFloat(loc Location, size int, val float64) error {
	if err := checkFloatSize(size); err != nil {
		return err
	}
	if loc.Mode == Immediate {
		return ErrImmStore
	}
	b, err := m.slice(loc, floatStorageSize(size))
	if err != nil {
		return err
	}
	EncodeFloat(m.Order, b, size, val)
	return nil
}

// floatStorageSize maps a float size to its in-memory footprint; the
// 80-bit format occupies 12 bytes.
func floatStorageSize(size int) int {
	if size == Float80 {
		return 12
	}
	return size
}

// ReadInt decodes len(b) bytes (1, 2, or 4) in the given order.
func ReadInt(order binary.ByteOrder, b []byte) uint64 {
	switch len(b) {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(order.Uint16(b))
	case 4:
		return uint64(order.Uint32(b))
	}
	panic("amem: bad int width")
}

// WriteInt encodes the low len(b) bytes of val in the given order.
func WriteInt(order binary.ByteOrder, b []byte, val uint64) {
	switch len(b) {
	case 1:
		b[0] = byte(val)
	case 2:
		order.PutUint16(b, uint16(val))
	case 4:
		order.PutUint32(b, uint32(val))
	default:
		panic("amem: bad int width")
	}
}

// DecodeFloat decodes a float of logical size (4, 8, or 10) from b.
func DecodeFloat(order binary.ByteOrder, b []byte, size int) float64 {
	switch size {
	case Float32:
		return float64(math32frombits(order.Uint32(b)))
	case Float64:
		return math64frombits(order.Uint64(b))
	case Float80:
		var img [12]byte
		copy(img[:], b)
		return DecodeFloat80(img)
	}
	panic("amem: bad float size")
}

// EncodeFloat encodes a float of logical size (4, 8, or 10) into b.
func EncodeFloat(order binary.ByteOrder, b []byte, size int, val float64) {
	switch size {
	case Float32:
		order.PutUint32(b, math32bits(float32(val)))
	case Float64:
		order.PutUint64(b, math64bits(val))
	case Float80:
		img := EncodeFloat80(val)
		copy(b, img[:])
	default:
		panic("amem: bad float size")
	}
}
