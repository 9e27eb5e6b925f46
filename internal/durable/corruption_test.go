package durable_test

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/golitho/hsd/internal/datengine"
	"github.com/golitho/hsd/internal/durable"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/qualitymon"
	"github.com/golitho/hsd/internal/scanfarm"
)

// magicLen is the length of every hsd frame magic.
const magicLen = 8

// corruptFormat is one framed on-disk format driven through the real
// loader its package exposes.
type corruptFormat struct {
	name, golden string
	// load reads path, checks what it recovered against the golden
	// values, and returns the number of intact records (a single-frame
	// file counts as one) and the intact-prefix offset.
	load func(t *testing.T, path string) (int, int64, error)
	// reappend, set for logs only, resumes the log at path, appends
	// golden record k, closes it, and returns how many records the
	// resume kept.
	reappend func(path string, k int) (int, error)
}

// singleFrame adapts a single-frame file loader.
func singleFrame[T any](load func(string) (T, error)) func(*testing.T, string) (int, int64, error) {
	return func(t *testing.T, path string) (int, int64, error) {
		if _, err := load(path); err != nil {
			return 0, 0, err
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return 1, st.Size(), nil
	}
}

func byShard(recs []scanfarm.ShardRecord) map[int]scanfarm.ShardRecord {
	m := make(map[int]scanfarm.ShardRecord, len(recs))
	for _, r := range recs {
		m[r.ShardID] = r
	}
	return m
}

var corruptFormats = []corruptFormat{
	{name: "network", golden: goldenModel, load: singleFrame(nn.LoadFile)},
	{name: "checkpoint", golden: goldenCheckpoint, load: singleFrame(nn.LoadCheckpointFile)},
	{name: "baseline", golden: goldenBaseline, load: singleFrame(qualitymon.LoadBaselineFile)},
	{
		name: "journal", golden: goldenJournal,
		load: func(t *testing.T, path string) (int, int64, error) {
			meta, got, off, err := scanfarm.LoadJournal(path)
			if err != nil {
				return 0, 0, err
			}
			want := goldenJournalRecords()
			if meta != goldenJournalMeta() || len(got) > len(want) ||
				!reflect.DeepEqual(got, byShard(want[:len(got)])) {
				t.Fatalf("journal recovered %+v / %+v, not a golden prefix", meta, got)
			}
			return len(got), off, nil
		},
		reappend: func(path string, k int) (int, error) {
			j, kept, err := scanfarm.ResumeJournal(path, goldenJournalMeta())
			if err != nil {
				return 0, err
			}
			defer j.Close()
			return len(kept), j.Append(goldenJournalRecords()[k])
		},
	},
	{
		name: "WAL", golden: goldenWAL,
		load: func(t *testing.T, path string) (int, int64, error) {
			meta, got, off, err := datengine.LoadWAL(path)
			if err != nil {
				return 0, 0, err
			}
			want := goldenWALRecords()
			if meta != goldenWALMeta() || len(got) > len(want) {
				t.Fatalf("WAL recovered %+v and %d records", meta, len(got))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("WAL record %d = %+v, want %+v", i, got[i], want[i])
				}
			}
			return len(got), off, nil
		},
		reappend: func(path string, k int) (int, error) {
			w, kept, err := datengine.ResumeWAL(path, goldenWALMeta())
			if err != nil {
				return 0, err
			}
			defer w.Close()
			return len(kept), w.Append(goldenWALRecords()[k])
		},
	},
}

// frameEnds returns the end offset of every frame of a well-formed file.
func frameEnds(b []byte) []int {
	var ends []int
	for off := 0; off < len(b); {
		off += magicLen + durable.FrameHeaderLen + int(binary.BigEndian.Uint64(b[off+magicLen:]))
		ends = append(ends, off)
	}
	return ends
}

// TestCorruption is the crash-tolerance sweep of every framed format.
// Truncating a file at any byte must fail a single-frame load loudly
// and, for a log, keep exactly the records whose frames are complete;
// resuming the torn log and appending must extend that prefix. A flipped
// byte in any part of any frame (magic, length, CRC, payload) must fail
// a single-frame load and end a log's intact prefix at that frame.
func TestCorruption(t *testing.T) {
	for _, f := range corruptFormats {
		t.Run(f.name, func(t *testing.T) {
			full := readGolden(t, f.golden)
			ends := frameEnds(full)
			path := filepath.Join(t.TempDir(), f.golden)
			write := func(b []byte) {
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			for cut := 0; cut <= len(full); cut++ {
				write(full[:cut])
				n, off, err := f.load(t, path)
				if f.reappend == nil {
					switch {
					case cut == len(full) && err != nil:
						t.Fatalf("intact file: %v", err)
					case cut < len(full) && err == nil:
						t.Fatalf("cut %d/%d loaded silently", cut, len(full))
					case cut >= magicLen && cut < len(full) && !strings.Contains(err.Error(), "truncated"):
						t.Fatalf("cut %d: error %q does not say truncated", cut, err)
					}
					continue
				}
				if cut < ends[0] {
					if err == nil {
						t.Fatalf("cut %d inside the header loaded silently", cut)
					}
					continue
				}
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				want := 0
				for _, e := range ends[1:] {
					if e <= cut {
						want++
					}
				}
				if n != want || off != int64(ends[want]) {
					t.Fatalf("cut %d: %d records to offset %d, want %d to %d", cut, n, off, want, ends[want])
				}
				if cut == len(full) {
					continue
				}
				kept, err := f.reappend(path, want)
				if err != nil || kept != want {
					t.Fatalf("cut %d: resume kept %d records (want %d), append: %v", cut, kept, want, err)
				}
				if n, _, err := f.load(t, path); err != nil || n != want+1 {
					t.Fatalf("cut %d: after resume and append %d records (%v), want %d", cut, n, err, want+1)
				}
			}

			for i, end := range ends {
				start := 0
				if i > 0 {
					start = ends[i-1]
				}
				regions := []struct {
					name string
					pos  int
				}{
					{"magic", start},
					{"length", start + magicLen},
					{"checksum", start + magicLen + 8},
					{"payload", (start + magicLen + durable.FrameHeaderLen + end) / 2},
				}
				for _, r := range regions {
					bad := append([]byte(nil), full...)
					bad[r.pos] ^= 0x40
					write(bad)
					n, off, err := f.load(t, path)
					switch {
					case f.reappend == nil || i == 0:
						if err == nil {
							t.Fatalf("frame %d %s flip loaded silently", i, r.name)
						}
						if f.reappend == nil && (r.name == "checksum" || r.name == "payload") &&
							!strings.Contains(err.Error(), "checksum") {
							t.Fatalf("frame %d %s flip: error %q does not say checksum", i, r.name, err)
						}
					case err != nil:
						t.Fatalf("frame %d %s flip: %v", i, r.name, err)
					case n != i-1 || off != int64(start):
						t.Fatalf("frame %d %s flip: %d records to offset %d, want %d to %d", i, r.name, n, off, i-1, start)
					}
				}
			}
		})
	}
}
