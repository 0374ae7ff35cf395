package kvstore

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
)

// normalizeValue collapses representations that are semantically identical
// on the wire (nil vs empty bulk payloads and arrays) so round-trip
// comparison is byte-exact without being allocation-exact.
func normalizeValue(v value) value {
	if len(v.bulk) == 0 {
		v.bulk = nil
	}
	if len(v.arr) == 0 {
		v.arr = nil
	} else {
		arr := make([]value, len(v.arr))
		for i, el := range v.arr {
			arr[i] = normalizeValue(el)
		}
		v.arr = arr
	}
	if v.null {
		v.bulk = nil
		v.arr = nil
	}
	return v
}

// FuzzRESPRoundTrip feeds arbitrary bytes to the RESP reader. Whatever it
// accepts must re-encode and re-parse to the identical value — the
// reader/writer pair is a lossless round trip over every frame the
// protocol can carry, tagged reply arrays included.
func FuzzRESPRoundTrip(f *testing.F) {
	seed := func(v value) {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeValue(w, v); err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		w.Flush()
		f.Add(buf.Bytes())
	}
	// Untagged frames: every reply kind the server produces.
	seed(simpleString("OK"))
	seed(errorValue("ERR unknown command 'NOSUCH'"))
	seed(integerValue(-42))
	seed(bulkValue([]byte("payload\r\nwith framing bytes")))
	seed(nullBulk())
	seed(value{kind: respArray, null: true})
	seed(arrayValue([]value{bulkValue([]byte("a")), nullBulk(), integerValue(7)}))
	// Tagged wait frames: [tag, reply] with each reply shape.
	seed(taggedReply([]byte("17"), bulkValue([]byte("value"))))
	seed(taggedReply([]byte("18"), nullBulk()))
	seed(taggedReply([]byte("19"), integerValue(9)))
	seed(taggedReply([]byte("20"), errorValue("ERR server closed")))
	// Command frames (arrays of bulk strings), plain and tagged.
	cmd := func(parts ...string) {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		args := make([][]byte, len(parts)-1)
		for i, p := range parts[1:] {
			args[i] = []byte(p)
		}
		if err := encodeCommand(w, parts[0], args...); err != nil {
			f.Fatalf("seed command: %v", err)
		}
		w.Flush()
		f.Add(buf.Bytes())
	}
	cmd("GET", "key")
	cmd("SET", "key", "val")
	cmd("MGET", "k1", "k2", "k3")
	cmd("TWAITGET", "3", "key", "1000")
	cmd("TWAITPREFIX", "4", "ps:t:", "12", "15000")

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := readValue(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return // rejected input; only accepted frames must round-trip
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeValue(w, v); err != nil {
			t.Fatalf("re-encoding accepted value %+v: %v", v, err)
		}
		w.Flush()
		v2, err := readValue(bufio.NewReader(bytes.NewReader(buf.Bytes())))
		if err != nil {
			t.Fatalf("re-parsing re-encoded frame %q: %v", buf.Bytes(), err)
		}
		if !reflect.DeepEqual(normalizeValue(v), normalizeValue(v2)) {
			t.Fatalf("round trip changed value:\n before %+v\n after  %+v", v, v2)
		}
		// Frames that parse as commands must survive the command layer too.
		if c, err := parseCommand(v); err == nil {
			var cbuf bytes.Buffer
			cw := bufio.NewWriter(&cbuf)
			if err := encodeCommand(cw, c.name, c.args...); err != nil {
				t.Fatalf("re-encoding command %q: %v", c.name, err)
			}
			cw.Flush()
			v3, err := readValue(bufio.NewReader(bytes.NewReader(cbuf.Bytes())))
			if err != nil {
				t.Fatalf("re-parsing re-encoded command: %v", err)
			}
			c2, err := parseCommand(v3)
			if err != nil {
				t.Fatalf("re-parsing command: %v", err)
			}
			if c2.name != c.name || len(c2.args) != len(c.args) {
				t.Fatalf("command round trip changed shape: %+v vs %+v", c, c2)
			}
			for i := range c.args {
				if !bytes.Equal(c.args[i], c2.args[i]) {
					t.Fatalf("command arg %d changed: %q vs %q", i, c.args[i], c2.args[i])
				}
			}
		}
	})
}
