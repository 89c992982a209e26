// Package checkpoint implements the versioned, CRC-guarded snapshot
// format behind the resumable soak harness: a checkpoint file captures
// the complete deterministic state of a running simulation (network,
// traffic engine, bus, fault injector, metrics, rng streams) so a killed
// run can be resumed and replay a byte-identical trace/metrics tail.
//
// The container is deliberately dumb: a fixed binary header guards a
// single JSON payload.
//
//	offset  size  field
//	     0     8  magic "MMCKPT1\n"
//	     8     4  format version (big endian)
//	    12    32  SHA-256 digest of the run's canonical config JSON
//	    44     8  payload length in bytes (big endian)
//	    52     4  CRC-32 (IEEE) of the payload (big endian)
//	    56     —  payload (JSON State)
//
// The digest is in the header so a resume against the wrong run
// (different topology, seed, or load) is rejected before any
// payload is parsed; the payload also embeds the config JSON itself so
// the mismatch error can name the fields that differ. Every load-path
// failure — truncation, bit rot, version skew — is returned as an error
// carrying the byte offset of the damage; the loader never panics.
package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"sort"
)

const (
	// Magic opens every checkpoint file.
	Magic = "MMCKPT1\n"
	// Version is the current format version; bump it on any payload
	// schema change that an older reader would misinterpret.
	Version = 2

	headerLen = 56
	offMagic  = 0
	offVer    = 8
	offDigest = 12
	offLen    = 44
	offCRC    = 52
	offBody   = 56
)

// Digest hashes a run's canonical config JSON — the identity a resume is
// checked against.
func Digest(cfgJSON []byte) [32]byte { return sha256.Sum256(cfgJSON) }

// Write atomically writes st as a checkpoint file stamped with the
// digest of cfgJSON (which is also embedded in the payload). It returns
// the total file size, the harness's checkpoint_bytes_total increment.
func Write(path string, cfgJSON []byte, st *State) (int64, error) {
	st.Config = json.RawMessage(cfgJSON)
	payload, err := json.Marshal(st)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: encode payload: %w", err)
	}
	buf := frame(Digest(cfgJSON), payload)
	// Atomic publish: a reader (or a kill -9) never sees a half-written
	// checkpoint under the final name.
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, err
	}
	return int64(len(buf)), nil
}

// frame puts the header in front of payload.
func frame(digest [32]byte, payload []byte) []byte {
	buf := make([]byte, headerLen+len(payload))
	copy(buf[offMagic:], Magic)
	binary.BigEndian.PutUint32(buf[offVer:], Version)
	copy(buf[offDigest:], digest[:])
	binary.BigEndian.PutUint64(buf[offLen:], uint64(len(payload)))
	binary.BigEndian.PutUint32(buf[offCRC:], crc32.ChecksumIEEE(payload))
	copy(buf[offBody:], payload)
	return buf
}

// ReadAny loads a checkpoint without checking whose run it belongs to,
// returning the state and the embedded config JSON. Integrity (magic,
// version, length, CRC) is still fully enforced. The bisect walker uses
// it; resume paths must use Read.
func ReadAny(path string) (*State, []byte, error) {
	st, _, err := read(path)
	if err != nil {
		return nil, nil, err
	}
	return st, []byte(st.Config), nil
}

// Read loads a checkpoint and verifies it was taken under exactly the
// given run configuration, rejecting a resume across a different
// topology, seed, or load with an error naming the fields that differ.
func Read(path string, cfgJSON []byte) (*State, error) {
	st, digest, err := read(path)
	if err != nil {
		return nil, err
	}
	if want := Digest(cfgJSON); digest != want {
		return nil, fmt.Errorf("checkpoint %s: config mismatch (header digest at offset %d): checkpoint was taken under a different run configuration%s — refusing to resume",
			path, offDigest, diffConfigs([]byte(st.Config), cfgJSON))
	}
	return st, nil
}

// read performs the shared integrity-checked load.
func read(path string) (*State, [32]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, [32]byte{}, err
	}
	return parse(path, data)
}

// parse checks and decodes the bytes of the checkpoint file at path.
func parse(path string, data []byte) (*State, [32]byte, error) {
	var digest [32]byte
	if len(data) < headerLen {
		return nil, digest, fmt.Errorf("checkpoint %s: truncated at byte offset %d: %d bytes, header needs %d",
			path, len(data), len(data), headerLen)
	}
	if string(data[offMagic:offMagic+len(Magic)]) != Magic {
		return nil, digest, fmt.Errorf("checkpoint %s: bad magic at byte offset %d: not a checkpoint file", path, offMagic)
	}
	if v := binary.BigEndian.Uint32(data[offVer:]); v != Version {
		return nil, digest, fmt.Errorf("checkpoint %s: unsupported format version %d at byte offset %d (reader supports %d)",
			path, v, offVer, Version)
	}
	copy(digest[:], data[offDigest:offDigest+32])
	plen := binary.BigEndian.Uint64(data[offLen:])
	if got := uint64(len(data) - headerLen); plen != got {
		return nil, digest, fmt.Errorf("checkpoint %s: truncated payload at byte offset %d: header says %d bytes, file holds %d",
			path, offBody+int(min(plen, got)), plen, got)
	}
	payload := data[offBody:]
	wantCRC := binary.BigEndian.Uint32(data[offCRC:])
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, digest, fmt.Errorf("checkpoint %s: corrupted payload (CRC 0x%08x, header at byte offset %d says 0x%08x; payload spans offsets %d..%d)",
			path, got, offCRC, wantCRC, offBody, len(data))
	}
	var st State
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, digest, fmt.Errorf("checkpoint %s: decode payload at byte offset %d: %w", path, offBody, err)
	}
	return &st, digest, nil
}

// diffConfigs names the top-level config fields that differ between the
// checkpoint's embedded config and the resuming run's, so the mismatch
// error says "seed, sync" instead of only two hashes. Best-effort: an
// undecodable side yields no field list.
func diffConfigs(stored, current []byte) string {
	var a, b map[string]any
	if json.Unmarshal(stored, &a) != nil || json.Unmarshal(current, &b) != nil {
		return ""
	}
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var differ []string
	for k := range keys {
		if !reflect.DeepEqual(a[k], b[k]) {
			differ = append(differ, k)
		}
	}
	if len(differ) == 0 {
		return ""
	}
	sort.Strings(differ)
	return fmt.Sprintf(" (differs in: %v)", differ)
}
