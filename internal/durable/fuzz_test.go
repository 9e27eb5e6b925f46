package durable_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/golitho/hsd/internal/datengine"
	"github.com/golitho/hsd/internal/durable"
	"github.com/golitho/hsd/internal/scanfarm"
)

// framedGoldens are the golden files made of frames.
var framedGoldens = []string{goldenModel, goldenCheckpoint, goldenWAL, goldenBaseline, goldenJournal}

// FuzzReadFrame throws arbitrary bytes at the frame reader, once
// expecting a fixed magic and once the input's own first bytes (so the
// fuzzer gets past the magic check). ReadFrame must never panic, and
// any frame it accepts must be exactly what WriteFrame makes of the
// returned payload.
func FuzzReadFrame(f *testing.F) {
	for _, g := range framedGoldens {
		f.Add(readGolden(f, g))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, magic := range [][]byte{[]byte("HSDNNv2\n"), data[:min(magicLen, len(data))]} {
			payload, n, err := durable.ReadFrame(bytes.NewReader(data), magic, 1<<20)
			if err != nil {
				continue
			}
			if n > int64(len(data)) {
				t.Fatalf("frame length %d beyond %d input bytes", n, len(data))
			}
			var buf bytes.Buffer
			if err := durable.WriteFrame(&buf, magic, payload); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), data[:n]) {
				t.Fatalf("accepted frame does not re-encode to its %d input bytes", n)
			}
		}
	})
}

// FuzzLoadLog throws arbitrary files at the scan-journal and learn-WAL
// loaders. A load must never panic, and the intact prefix it reports
// must itself load to the same records and offset.
func FuzzLoadLog(f *testing.F) {
	for _, g := range []string{goldenJournal, goldenWAL} {
		full := readGolden(f, g)
		f.Add(full)
		f.Add(full[:len(full)-7]) // torn tail
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log")
		load := func(b []byte) (int, int64, error) {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, recs, off, err := scanfarm.LoadJournal(path); err == nil {
				return len(recs), off, nil
			}
			_, recs, off, err := datengine.LoadWAL(path)
			return len(recs), off, err
		}
		n, off, err := load(data)
		if err != nil {
			return
		}
		if off > int64(len(data)) {
			t.Fatalf("intact offset %d beyond %d input bytes", off, len(data))
		}
		if n2, off2, err := load(data[:off]); err != nil || n2 != n || off2 != off {
			t.Fatalf("intact prefix reloads to %d records at %d (%v), want %d at %d", n2, off2, err, n, off)
		}
	})
}
