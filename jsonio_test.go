package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// parseQueryReflect is ParseQuery through encoding/json alone, as it
// was before the canonical decoder: the reference the decoder must
// reproduce.
func parseQueryReflect(data []byte) (*QueryJSON, error) {
	var q QueryJSON
	if err := json.Unmarshal(data, &q); err != nil {
		return nil, fmt.Errorf("repro: parsing query: %w", err)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return &q, nil
}

// checkQueryDecode asserts the decoder contract on one input: when the
// canonical decoder accepts a document, encoding/json accepts the same
// bytes and decodes a reflect.DeepEqual value (nil and empty lists
// included); whatever the decoder does, ParseQuery returns exactly what
// the encoding/json path returns, error text included.
func checkQueryDecode(t *testing.T, data []byte) {
	t.Helper()
	if q, n, ok := DecodeQueryJSON(string(data)); ok {
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		var want QueryJSON
		if err := json.Unmarshal(data[:n], &want); err != nil {
			t.Fatalf("fast decoder accepted %q, encoding/json rejects it: %v", data[:n], err)
		}
		if !reflect.DeepEqual(q, &want) {
			t.Fatalf("decoded %q\n got: %#v\nwant: %#v", data[:n], q, want)
		}
	}
	got, gerr := ParseQuery(data)
	want, werr := parseQueryReflect(data)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("ParseQuery(%q) error %v, encoding/json path %v", data, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseQuery(%q)\n got: %#v\nwant: %#v", data, got, want)
	}
}

// queryDecodeCases cover both sides of the subset boundary: canonical
// documents, and inputs every rule of the subset sends to encoding/json.
var queryDecodeCases = []string{
	`{"relations":[{"name":"a","card":10},{"name":"b","card":2.5e3,"free":[0]}],"edges":[{"left":[0],"right":[1],"sel":0.01,"op":"join","label":"a.x=b.y"}]}`,
	` { "relations" : [ { "card" : 1 , "name" : "x" } ] , "edges" : [ { "sel" : 1e-3 , "right" : [ 1 ] , "left" : [ 0 ] , "free" : [ ] } ] } `,
	`{"relations":[{"name":"a","card":1},{"name":"b","card":1}],"tree":{"op":"leftouter","left":{"rel":0},"right":{"rel":1},"pred":[0,1],"sel":0.5,"label":"p"}}`,
	`{"relations":[],"edges":[]}`,
	`{"relations":[{"name":"a","card":-0}],"edges":[{"left":[-0],"right":[1],"sel":0}]}`,
	`{"relations":[{"name":"a","card":1}]} trailing`,
	`{"relations":null}`,
	`{"Relations":[{"name":"a","card":1}],"edges":[{"left":[0],"right":[0],"sel":1}]}`,
	`{"relations":[{"name":"a","card":1}],"relations":[{"name":"b"}]}`,
	`{"relations":[{"name":"aé","card":1}],"edges":[{"left":[0],"right":[0],"sel":1}]}`,
	`{"relations":[{"name":"é","card":1}],"edges":[{"left":[0],"right":[0],"sel":1}]}`,
	`{"relations":[{"name":"a","card":1e400}],"edges":[{"left":[0],"right":[0],"sel":1}]}`,
	`{"relations":[{"name":"a","card":01}]}`,
	`{"relations":[{"name":"a","card":1.}]}`,
	`{"relations":[{"name":"a","card":"1"}]}`,
	`{"relations":[{"name":"a","card":1,"free":[1.0]}]}`,
	`{"relations":[{"name":"a","card":1,"free":[99999999999999999999]}]}`,
	`{"relations":[{"name":"a","card":1,}]}`,
	`{"relations":[{"name":"a","card":1}],"extra":true}`,
	`{"tree":{"rel":0,"left":{"rel":1}}}`,
	`{"relations":[{"name":"a","card":1}],"tree":{"rel":null}}`,
	`[]`, `null`, ``, `{`, `{"relations":[`,
}

// TestQueryDecodeParity runs the decoder contract over the fixed cases.
func TestQueryDecodeParity(t *testing.T) {
	for _, c := range queryDecodeCases {
		checkQueryDecode(t, []byte(c))
	}
	// The first case is canonical and must take the fast path.
	if _, _, ok := DecodeQueryJSON(queryDecodeCases[0]); !ok {
		t.Error("canonical document declined")
	}
}

// TestQueryDecodeDeepTree: trees nested past the decoder's depth bound
// decline to encoding/json instead of recursing without limit.
func TestQueryDecodeDeepTree(t *testing.T) {
	var b bytes.Buffer
	b.WriteString(`{"relations":[{"name":"a","card":1}],"tree":`)
	for i := 0; i < maxTreeDepth+5; i++ {
		b.WriteString(`{"op":"join","left":`)
	}
	b.WriteString(`{"rel":0}`)
	for i := 0; i < maxTreeDepth+5; i++ {
		b.WriteString(`}`)
	}
	b.WriteString(`}`)
	if _, _, ok := DecodeQueryJSON(b.String()); ok {
		t.Fatal("decoder accepted a tree past its depth bound")
	}
	checkQueryDecode(t, b.Bytes())
}

// FuzzQueryDecode: for arbitrary input the canonical decoder either
// agrees with encoding/json or declines, and ParseQuery's result is
// always encoding/json's. The seed corpus is testdata/fuzz/FuzzQueryDecode
// plus the fixed cases.
func FuzzQueryDecode(f *testing.F) {
	for _, c := range queryDecodeCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkQueryDecode(t, data)
	})
}
