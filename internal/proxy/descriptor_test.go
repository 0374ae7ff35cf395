package proxy

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

func TestDescriptorRoundTrip(t *testing.T) {
	for _, d := range []Descriptor{
		{Kind: "store", Data: []byte{1, 2, 3}},
		{Kind: "", Data: nil},
		{Kind: strings.Repeat("k", 300), Data: bytes.Repeat([]byte{0xd1}, 1000)},
	} {
		blob, err := d.MarshalBinary()
		if err != nil {
			t.Fatalf("MarshalBinary: %v", err)
		}
		var got Descriptor
		if err := got.UnmarshalBinary(blob); err != nil {
			t.Fatalf("UnmarshalBinary: %v", err)
		}
		if got.Kind != d.Kind || !bytes.Equal(got.Data, d.Data) {
			t.Fatalf("round trip = %q/%x, want %q/%x", got.Kind, got.Data, d.Kind, d.Data)
		}
		blob[len(blob)-1] ^= 0xff
		if len(d.Data) > 0 && got.Data[len(got.Data)-1] != d.Data[len(d.Data)-1] {
			t.Fatal("decoded Data aliases the input")
		}
	}
}

func TestDescriptorRefusesOversizedKindLength(t *testing.T) {
	blob := binary.AppendUvarint([]byte{descriptorFormat}, 1<<30)
	blob = append(blob, "store"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var d Descriptor
	err := d.UnmarshalBinary(blob)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("err = %v, want a length-exceeds error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing the input allocated %d bytes", grew)
	}
}

func TestDescriptorRefusesEmptyAndUnknownFormat(t *testing.T) {
	var d Descriptor
	for _, blob := range [][]byte{nil, {0x00}, {0x2f, 0xff, 0x81}} {
		if err := d.UnmarshalBinary(blob); err == nil {
			t.Fatalf("UnmarshalBinary(%x) succeeded", blob)
		}
	}
}

func FuzzDescriptor(f *testing.F) {
	for _, d := range []Descriptor{
		{Kind: "store", Data: []byte("state")},
		{Kind: "proxytest"},
	} {
		blob, _ := d.MarshalBinary()
		f.Add(blob)
	}
	f.Add([]byte{descriptorFormat, 0x80, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Descriptor
		if err := d.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := d.MarshalBinary()
		if err != nil {
			t.Fatalf("MarshalBinary of an accepted descriptor: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted descriptor re-encodes differently:\n got %x\nwant %x", out, data)
		}
	})
}
