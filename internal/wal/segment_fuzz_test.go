package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// intactPrefix is the reference reading of a segment: the payloads of its
// leading frames that are whole (header and payload present), plausibly
// sized and CRC-clean, and the byte length they span. Recovery must keep
// exactly these and nothing past the first frame that is not.
func intactPrefix(data []byte) (payloads [][]byte, n int) {
	for len(data)-n >= headerSize {
		length := binary.LittleEndian.Uint32(data[n:])
		if length > maxRecordSize || uint64(len(data)-n-headerSize) < uint64(length) {
			break
		}
		payload := data[n+headerSize : n+headerSize+int(length)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[n+4:]) {
			break
		}
		payloads = append(payloads, payload)
		n += headerSize + int(length)
	}
	return payloads, n
}

// replayAll opens dir and replays it; the log is closed before returning.
func replayAll(t *testing.T, dir string) (payloads [][]byte, nextSeq uint64, err error) {
	t.Helper()
	l, err := Open(dir, WithSyncEveryAppend(false))
	if err != nil {
		return nil, 0, err
	}
	defer l.Close()
	err = l.Replay(func(_ uint64, p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay after a clean Open: %v", err)
	}
	return payloads, l.NextSeq(), nil
}

// FuzzWALSegment hands Open arbitrary bytes as a segment file. As the
// final segment, Open never panics or fails, truncates the file to the
// longest intact frame prefix, Replay yields exactly those payloads in
// order, re-framing them with appendFrame reproduces the prefix byte for
// byte, and a second Open truncates nothing further. As a non-final
// segment, Open either keeps every frame or fails with ErrCorrupt.
func FuzzWALSegment(f *testing.F) {
	frame := appendFrame(nil, []byte("register sensor-1"))
	two := appendFrame(append([]byte(nil), frame...), []byte("expire sensor-1"))
	crcFlip := append([]byte(nil), two...)
	crcFlip[len(frame)+4] ^= 0x01
	tooLong := binary.LittleEndian.AppendUint32(append([]byte(nil), frame...), maxRecordSize+1)
	tooLong = append(tooLong, 0, 0, 0, 0)
	f.Add([]byte{})                                           // empty
	f.Add(frame)                                              // one valid frame
	f.Add(append(append([]byte(nil), two...), frame[:11]...)) // torn tail
	f.Add(crcFlip)                                            // second frame's CRC flipped
	f.Add(tooLong)                                            // length above maxRecordSize
	f.Add(frame[:headerSize-1])                               // short header
	f.Fuzz(func(t *testing.T, data []byte) {
		want, keep := intactPrefix(data)

		// As the final (only) segment.
		dir := t.TempDir()
		seg := filepath.Join(dir, segName(1))
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, next, err := replayAll(t, dir)
		if err != nil {
			t.Fatalf("Open on a final segment: %v", err)
		}
		if len(got) != len(want) || next != 1+uint64(len(want)) {
			t.Fatalf("replayed %d records (next seq %d), want %d", len(got), next, len(want))
		}
		var reframed []byte
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d = %x, want %x", i, got[i], want[i])
			}
			reframed = appendFrame(reframed, got[i])
		}
		if !bytes.Equal(reframed, data[:keep]) {
			t.Fatalf("re-framed records differ from the kept prefix")
		}
		onDisk, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, data[:keep]) {
			t.Fatalf("Open kept %d bytes, want the %d-byte intact prefix", len(onDisk), keep)
		}
		if _, _, err := replayAll(t, dir); err != nil {
			t.Fatalf("second Open: %v", err)
		}
		if again, err := os.ReadFile(seg); err != nil || !bytes.Equal(again, onDisk) {
			t.Fatalf("second Open truncated further: %d -> %d bytes (%v)", len(onDisk), len(again), err)
		}

		// As a sealed segment followed by an empty active one.
		dir = t.TempDir()
		seg = filepath.Join(dir, segName(1))
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		active := segName(2 + uint64(len(want))) // past the sealed one's records, whatever they are
		if err := os.WriteFile(filepath.Join(dir, active), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		got, _, err = replayAll(t, dir)
		switch {
		case err != nil:
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open on a damaged sealed segment: %v, want ErrCorrupt", err)
			}
			if keep == len(data) {
				t.Fatalf("Open refused an intact sealed segment: %v", err)
			}
		case keep != len(data):
			t.Fatalf("Open accepted a sealed segment with %d damaged bytes", len(data)-keep)
		case len(got) != len(want):
			t.Fatalf("sealed segment replayed %d records, want %d", len(got), len(want))
		}
		if onDisk, err := os.ReadFile(seg); err != nil || !bytes.Equal(onDisk, data) {
			t.Fatalf("Open rewrote a sealed segment (%v)", err)
		}
	})
}
