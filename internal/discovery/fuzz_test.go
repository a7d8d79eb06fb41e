package discovery

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodePacket feeds DecodePacket what any host on the LAN can send
// to a discovery listener. Properties: it never panics, a rejected
// datagram is ErrBadPacket, and an accepted packet survives EncodePacket
// then DecodePacket unchanged.
func FuzzDecodePacket(f *testing.F) {
	const id = `"267c67a0-dd67-4b95-beb0-e6763e117b03"`
	for _, seed := range []string{
		`{"magic":"SNSRCR1","id":` + id + `,"name":"lus","groups":["public","lab"],"locator":"127.0.0.1:4160"}`,
		`{"magic":"SNSRCR1","id":` + id + `,"groups":null}`,
		`{"magic":"SNSRCR1","id":` + id + `,"groups":[]}`,
		`{"MAGIC":"SNSRCR1","ID":"267C67A0-DD67-4B95-BEB0-E6763E117B03","Name":"upper"}`,
		`{"magic":"SNSRCR1","id":` + id + `,"name":"bad utf8 \xff\xfe","locator":"é"}`,
		`{"magic":"SNSRCR1","id":` + id + `,"name":"a","name":"dup","extra":{"x":[1,2]}}`,
		`{"magic":"SNSRCR1","id":"00000000-0000-0000-0000-000000000000"}`,
		`{"magic":"SNSRCR1","id":"267c67a0dd674b95beb0e6763e117b03xxxx"}`,
		`{"magic":"SNSRCR1","id":null}`,
		`{"magic":"WRONG","id":` + id + `}`,
		`{"magic":"SNSRCR1","id":` + id + `,"groups":"notalist"}`,
		`{"magic":"SNSRCR1","id":` + id,
		`[` + strings.Repeat(`[`, 200) + strings.Repeat(`]`, 200) + `]`,
		`null`,
		`{}`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodePacket(b)
		if err != nil {
			if !errors.Is(err, ErrBadPacket) {
				t.Fatalf("rejection %v is not ErrBadPacket", err)
			}
			return
		}
		enc, err := EncodePacket(p)
		if err != nil {
			t.Fatalf("re-encoding an accepted packet: %v", err)
		}
		back, err := DecodePacket(enc)
		if err != nil {
			t.Fatalf("re-encoded packet %s rejected: %v", enc, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip changed the packet:\n got %+v\nwant %+v", back, p)
		}
	})
}
