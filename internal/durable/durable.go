// Package durable is the one on-disk record substrate of hsd: the
// integrity frame every persisted format uses, single-frame file
// formats (models, checkpoints, quality sidecars), append-only logs of
// framed records (the scan journal and the learn WAL), and the
// crash-safe whole-file writer.
//
// A frame is
//
//	magic (8 bytes) | payload length (u64, big endian) | CRC32-IEEE of payload (u32, big endian) | payload
//
// so a reader tells a torn or bit-flipped file from a valid one before
// the payload reaches gob. Payloads are gob streams, one encoder per
// frame, so every frame is self-describing.
//
// Gob allocates wire-type ids from a process-global counter in
// first-encode order, so the bytes of a frame would otherwise depend on
// whatever the process happened to gob-encode earlier. Declaring a
// format (NewFormat, NewLogFormat) encodes a zero value of its types,
// which fixes their ids at package initialisation, before any runtime
// traffic: a given binary writes the same bytes for the same values
// whatever else it did first.
package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// FrameHeaderLen is the byte length of a frame after its magic: the
// payload length (u64) and the payload CRC32 (u32).
const FrameHeaderLen = 8 + 4

// readChunk caps each step of payload allocation, so a forged length
// field costs memory only for the bytes actually present.
const readChunk = 64 << 10

// WriteFrame writes magic, the payload length, the payload CRC32, then
// the payload.
func WriteFrame(w io.Writer, magic, payload []byte) error {
	header := make([]byte, len(magic)+FrameHeaderLen)
	copy(header, magic)
	binary.BigEndian.PutUint64(header[len(magic):], uint64(len(payload)))
	binary.BigEndian.PutUint32(header[len(magic)+8:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("write frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("write frame payload: %w", err)
	}
	return nil
}

// ReadFrame reads one frame that must open with magic and declare at
// most maxPayload bytes, and returns the verified payload and the whole
// frame's length. End of input before the first byte returns io.EOF;
// anything else wrong (bad magic, a short frame, an implausible length,
// a CRC mismatch) returns a descriptive error.
func ReadFrame(r io.Reader, magic []byte, maxPayload uint64) ([]byte, int64, error) {
	head := make([]byte, len(magic)+FrameHeaderLen)
	if _, err := io.ReadFull(r, head[:len(magic)]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("frame magic truncated (torn write?): %w", err)
	}
	if !bytes.Equal(head[:len(magic)], magic) {
		return nil, 0, fmt.Errorf("bad frame magic %q, want %q", head[:len(magic)], magic)
	}
	if _, err := io.ReadFull(r, head[len(magic):]); err != nil {
		return nil, 0, fmt.Errorf("frame header truncated (torn write?): %w", err)
	}
	size := binary.BigEndian.Uint64(head[len(magic):])
	wantCRC := binary.BigEndian.Uint32(head[len(magic)+8:])
	if size > maxPayload {
		return nil, 0, fmt.Errorf("frame corrupt: implausible payload size %d", size)
	}
	// Grow by doubling as bytes arrive instead of trusting size up front.
	payload := make([]byte, min(size, readChunk))
	for off := 0; ; {
		if _, err := io.ReadFull(r, payload[off:]); err != nil {
			return nil, 0, fmt.Errorf("frame truncated: want %d payload bytes (torn write?): %w", size, err)
		}
		if off = len(payload); uint64(off) == size {
			break
		}
		payload = append(payload, make([]byte, min(size-uint64(off), uint64(off)))...)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, 0, fmt.Errorf("frame corrupt: checksum %08x, want %08x", got, wantCRC)
	}
	return payload, int64(len(head)) + int64(size), nil
}

// pinGob allocates the gob wire-type ids of v's type and every type it
// reaches (see the package comment).
func pinGob(v any) { _ = gob.NewEncoder(io.Discard).Encode(v) }

func encodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeGob(payload []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	return nil
}

// Format is a file holding one frame whose payload is a gob-encoded T.
type Format[T any] struct {
	name       string
	magic      []byte
	maxPayload uint64
}

// NewFormat declares a single-frame format and pins T's gob type ids.
// name prefixes every error ("nn: network file").
func NewFormat[T any](name, magic string, maxPayload uint64) *Format[T] {
	pinGob(new(T))
	return &Format[T]{name: name, magic: []byte(magic), maxPayload: maxPayload}
}

// Magic returns the format's frame magic.
func (f *Format[T]) Magic() []byte { return f.magic }

// Write encodes v as one frame.
func (f *Format[T]) Write(w io.Writer, v *T) error {
	payload, err := encodeGob(v)
	if err == nil {
		err = WriteFrame(w, f.magic, payload)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", f.name, err)
	}
	return nil
}

// Read decodes one frame written by Write, rejecting truncated and
// corrupted input before gob sees it.
func (f *Format[T]) Read(r io.Reader) (*T, error) {
	payload, _, err := ReadFrame(r, f.magic, f.maxPayload)
	if err == io.EOF {
		err = errors.New("truncated: empty file")
	}
	var v T
	if err == nil {
		err = decodeGob(payload, &v)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", f.name, err)
	}
	return &v, nil
}

// LoadFile opens path and decodes it with load, naming path in any error.
func LoadFile[T any](path string, load func(io.Reader) (T, error)) (T, error) {
	fh, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer fh.Close()
	v, err := load(fh)
	if err != nil {
		return v, fmt.Errorf("load %s: %w", path, err)
	}
	return v, nil
}

// AtomicWriteFile writes a file crash-safely: write fills a temp file
// in path's directory, which is fsynced and renamed over path, and the
// directory is synced so the rename itself is durable. A crash leaves
// the previous file (or nothing), never a torn one.
func AtomicWriteFile(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: create temp file: %w", err)
	}
	name := tmp.Name()
	err = write(tmp)
	if err == nil {
		if err = tmp.Sync(); err != nil {
			err = fmt.Errorf("durable: fsync %s: %w", name, err)
		}
	}
	if cerr := tmp.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("durable: close %s: %w", name, cerr)
	}
	if err == nil {
		if err = os.Rename(name, path); err != nil {
			err = fmt.Errorf("durable: rename into place: %w", err)
		}
	}
	if err != nil {
		os.Remove(name)
		return err
	}
	syncDir(path)
	return nil
}

// syncDir fsyncs the directory holding path so a just-created or
// renamed entry is durable. Best effort: not every filesystem supports
// directory fsync.
func syncDir(path string) {
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
