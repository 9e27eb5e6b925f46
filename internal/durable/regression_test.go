package durable_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/golitho/hsd/internal/datengine"
	"github.com/golitho/hsd/internal/durable"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/qualitymon"
	"github.com/golitho/hsd/internal/scanfarm"
)

// TestGobBytesIndependentOfProcessHistory: gob numbers wire types in
// first-encode order process-wide, so without pinning, one unrelated
// encode shifts every later type id and the same journal record, WAL
// record or quality sidecar comes out as different bytes. Declaring a
// format pins its ids at package init, before any such traffic.
func TestGobBytesIndependentOfProcessHistory(t *testing.T) {
	type unrelated struct {
		Name   string
		Counts map[string][]int64
	}
	if err := gob.NewEncoder(io.Discard).Encode(unrelated{"x", map[string][]int64{"a": {1}}}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	path := filepath.Join(dir, goldenJournal)
	j, err := scanfarm.CreateJournal(path, goldenJournalMeta())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range goldenJournalRecords() {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	sameBytes(t, path, goldenJournal)

	path = filepath.Join(dir, goldenWAL)
	w, err := datengine.CreateWAL(path, goldenWALMeta())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range goldenWALRecords() {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sameBytes(t, path, goldenWAL)

	path = filepath.Join(dir, goldenBaseline)
	if err := qualitymon.SaveBaselineFile(path, goldenBaselineValue()); err != nil {
		t.Fatal(err)
	}
	sameBytes(t, path, goldenBaseline)
}

func sameBytes(t *testing.T, path, golden string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, readGolden(t, golden)) {
		t.Errorf("%s: written bytes differ from the golden", golden)
	}
}

// TestForgedLengthBoundedAllocation: a bare frame header declaring the
// largest payload its format allows, with no payload behind it, must
// cost memory for the bytes present, not the bytes declared. This is
// the path a hot reload of a corrupt model file takes.
func TestForgedLengthBoundedAllocation(t *testing.T) {
	forge := func(magic string, size uint64) []byte {
		b := make([]byte, magicLen+durable.FrameHeaderLen)
		copy(b, magic)
		binary.BigEndian.PutUint64(b[magicLen:], size)
		return b
	}
	withHeader := func(golden string, frame []byte) []byte {
		full := readGolden(t, golden)
		return append(full[:frameEnds(full)[0]], frame...)
	}
	cases := []struct {
		name string
		data []byte
		load func(path string) error
	}{
		{"network", forge("HSDNNv2\n", 1<<31), func(p string) error { _, err := nn.LoadFile(p); return err }},
		{"checkpoint", forge("HSDCKv1\n", 1<<31), func(p string) error { _, err := nn.LoadCheckpointFile(p); return err }},
		{"baseline", forge("HSDQBv1\n", 1<<28), func(p string) error { _, err := qualitymon.LoadBaselineFile(p); return err }},
		{"journal header", forge("HSDSJh1\n", 1<<30), func(p string) error { _, _, _, err := scanfarm.LoadJournal(p); return err }},
		{"journal record", withHeader(goldenJournal, forge("HSDSJr1\n", 1<<30)), func(p string) error {
			if _, recs, _, err := scanfarm.LoadJournal(p); err != nil || len(recs) != 0 {
				t.Fatalf("torn record frame: %d records, %v", len(recs), err)
			}
			return nil
		}},
		{"WAL header", forge("HSDLWh1\n", 1<<30), func(p string) error { _, _, _, err := datengine.LoadWAL(p); return err }},
		{"WAL record", withHeader(goldenWAL, forge("HSDLWr1\n", 1<<30)), func(p string) error {
			if _, recs, _, err := datengine.LoadWAL(p); err != nil || len(recs) != 0 {
				t.Fatalf("torn record frame: %d records, %v", len(recs), err)
			}
			return nil
		}},
	}
	dir := t.TempDir()
	for _, c := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "-"))
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		alloc := allocated(func() {
			if err := c.load(path); err == nil && !strings.HasSuffix(c.name, "record") {
				t.Errorf("%s: forged header loaded without error", c.name)
			}
		})
		if alloc >= 1<<20 {
			t.Errorf("%s: loading a %d-byte file allocated %d bytes", c.name, len(c.data), alloc)
		}
	}
}

// allocated returns the bytes heap-allocated while fn runs.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
