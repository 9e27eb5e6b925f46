package nn

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/golitho/hsd/internal/durable"
)

func testNet(t *testing.T) *Network {
	t.Helper()
	net := BuildMLP(4, 8)
	return net
}

// TestSaveFileAtomicRoundTrip writes through the crash-safe path and
// loads the result back.
func TestSaveFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.net")
	net := testNet(t)
	if err := SaveFile(path, net); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Layers) != len(net.Layers) {
		t.Fatalf("layers = %d, want %d", len(got.Layers), len(net.Layers))
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after SaveFile, want 1", len(entries))
	}
	// Overwriting an existing model also succeeds (rename over target).
	if err := SaveFile(path, net); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRejectsTornWrite truncates a saved model at every interesting
// boundary and asserts Load fails with a clear error — never returns a
// network reconstructed from partial bytes.
func TestLoadRejectsTornWrite(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, testNet(t)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	cuts := []int{
		len(netFormat.Magic()) - 2,                          // inside the magic
		len(netFormat.Magic()) + 3,                          // inside the length field
		len(netFormat.Magic()) + durable.FrameHeaderLen,     // header only, no payload
		len(netFormat.Magic()) + durable.FrameHeaderLen + 7, // partial payload
		len(full) - 1, // one byte short
	}
	for _, cut := range cuts {
		if cut < 0 || cut >= len(full) {
			t.Fatalf("bad cut %d for file of %d bytes", cut, len(full))
		}
		_, err := Load(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes loaded successfully", cut, len(full))
		}
	}
	// Truncations past the header must say so clearly.
	_, err := Load(bytes.NewReader(full[:len(full)-1]))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("payload truncation error = %v, want mention of truncation", err)
	}
}

// TestLoadRejectsCorruption flips one payload byte: the checksum must
// catch it before gob sees the bytes.
func TestLoadRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, testNet(t)); err != nil {
		t.Fatal(err)
	}
	full := append([]byte(nil), buf.Bytes()...)
	full[len(full)-5] ^= 0x40
	_, err := Load(bytes.NewReader(full))
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corruption error = %v, want checksum mismatch", err)
	}
	// A corrupted length field is caught by the plausibility bound.
	huge := append([]byte(nil), buf.Bytes()...)
	huge[len(netFormat.Magic())] = 0xFF
	_, err = Load(bytes.NewReader(huge))
	if err == nil {
		t.Fatal("implausible payload length accepted")
	}
}

// TestLoadLegacyRawGob: files written before the frame existed are raw
// gob streams and must still load.
func TestLoadLegacyRawGob(t *testing.T) {
	net := testNet(t)
	var framed bytes.Buffer
	if err := Save(&framed, net); err != nil {
		t.Fatal(err)
	}
	// Reconstruct the legacy encoding: the gob payload without frame.
	legacy := framed.Bytes()[len(netFormat.Magic())+durable.FrameHeaderLen:]
	if bytes.HasPrefix(legacy, netFormat.Magic()) {
		t.Fatal("legacy gob stream collides with the frame magic")
	}
	got, err := Load(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("legacy load: %v", err)
	}
	if len(got.Layers) != len(net.Layers) {
		t.Fatalf("legacy layers = %d, want %d", len(got.Layers), len(net.Layers))
	}
}

// TestLoadRejectsWrongVersion: a framed payload with an unknown format
// version is refused after the integrity check.
func TestLoadRejectsWrongVersion(t *testing.T) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(netFile{Version: 99}); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&payload)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v, want unsupported version", err)
	}
}
