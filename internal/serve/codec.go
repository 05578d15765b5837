package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"

	"sparselr/internal/core"
)

// Factor wire/disk format (DESIGN.md §4g). A completed approximation is
// framed as
//
//	magic (6 bytes "LRKC1\n") | sha256(payload) (32) | len(payload) (8, BE) | payload
//
// where payload is the gob encoding of the *core.Approximation. The
// checksum-before-payload layout lets a reader reject a truncated or
// bit-rotted file after one pass without trusting gob to fail cleanly;
// the same frame travels over GET /v1/cache/{key} for peer cache fill,
// so a factor written to disk on one shard is byte-compatible with a
// peer fetch on another.

// cacheMagic identifies frame version 1. Any format change must bump it
// so old disk caches read as corrupt (and are deleted) rather than
// misdecoded.
const cacheMagic = "LRKC1\n"

// maxFrameBytes bounds a decoded payload (default 1 GiB): a corrupt
// length field must not drive an arbitrary-size allocation.
const maxFrameBytes = 1 << 30

// EncodeApproximation writes one framed approximation.
func EncodeApproximation(w io.Writer, ap *core.Approximation) error {
	if ap == nil {
		return fmt.Errorf("serve: cannot encode nil approximation")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ap); err != nil {
		return fmt.Errorf("serve: encoding approximation: %w", err)
	}
	payload := buf.Bytes()
	sum := sha256.Sum256(payload)
	var hdr [len(cacheMagic) + sha256.Size + 8]byte
	copy(hdr[:], cacheMagic)
	copy(hdr[len(cacheMagic):], sum[:])
	binary.BigEndian.PutUint64(hdr[len(cacheMagic)+sha256.Size:], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// DecodeApproximation reads one framed approximation, verifying the
// magic, length and checksum before gob-decoding and the factors'
// structure (core.Approximation.Validate) after. Every corruption mode
// — truncation, a bad length, flipped payload bits, a well-checksummed
// frame whose factors claim more entries than they hold — returns an
// error rather than a malformed result.
func DecodeApproximation(r io.Reader) (*core.Approximation, error) {
	var hdr [len(cacheMagic) + sha256.Size + 8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("serve: cache frame header: %w", err)
	}
	if string(hdr[:len(cacheMagic)]) != cacheMagic {
		return nil, fmt.Errorf("serve: bad cache frame magic %q", hdr[:len(cacheMagic)])
	}
	want := hdr[len(cacheMagic) : len(cacheMagic)+sha256.Size]
	n := binary.BigEndian.Uint64(hdr[len(cacheMagic)+sha256.Size:])
	if n == 0 || n > maxFrameBytes {
		return nil, fmt.Errorf("serve: implausible cache frame length %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("serve: cache frame truncated: %w", err)
	}
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], want) {
		return nil, fmt.Errorf("serve: cache frame checksum mismatch")
	}
	ap := &core.Approximation{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(ap); err != nil {
		return nil, fmt.Errorf("serve: decoding approximation: %w", err)
	}
	if err := ap.Validate(); err != nil {
		return nil, fmt.Errorf("serve: invalid approximation: %w", err)
	}
	return ap, nil
}
