package service

import (
	"strconv"

	"repro"
)

// documentKey returns a query document's identity for coalescing and
// logging, and for hypergraph documents the built query the leader
// plans. /plan and /batch both key through it, so one query logs one
// fingerprint on either path.
//
// A hypergraph document keys on its built graph's Fingerprint, the
// plan cache's own graph key, taken before Plan's connectivity repair
// adds cross edges — so it is the document's own graph. An
// operator-tree document has no graph before conflict analysis; it
// keys on treeKey.
func documentKey(doc *repro.QueryJSON) (*repro.Query, string, error) {
	if doc.Tree != nil {
		return nil, treeKey(doc), nil
	}
	q, err := doc.BuildQuery()
	if err != nil {
		return nil, "", err
	}
	return q, q.Graph().Fingerprint(), nil
}

// treeKey encodes an operator-tree document canonically, in the style
// of Graph.Fingerprint: every field of the decoded document, strings
// length-prefixed, numbers comma-terminated and floats in exact binary
// form. Names and labels are
// kept — relation names reach the response, so documents differing in
// them must not share one. Field order, whitespace and request-level
// fields such as timeout_ms are not part of the decoded document, so
// they cannot split the key.
func treeKey(doc *repro.QueryJSON) string {
	b := make([]byte, 0, 64+32*len(doc.Relations))
	b = append(b, "tree:"...)
	b = strconv.AppendInt(b, int64(len(doc.Relations)), 10)
	for _, r := range doc.Relations {
		b = append(b, '|')
		b = appendKeyString(b, r.Name)
		b = strconv.AppendFloat(b, r.Card, 'b', -1, 64)
		b = append(b, ',')
		b = appendKeyInts(b, r.Free)
	}
	b = append(b, ';')
	return string(appendTreeNode(b, doc.Tree))
}

func appendTreeNode(b []byte, t *repro.TreeJSON) []byte {
	if t == nil {
		return append(b, '-')
	}
	b = append(b, '(')
	if t.Rel != nil {
		b = append(b, 'r')
		b = strconv.AppendInt(b, int64(*t.Rel), 10)
		b = append(b, ',')
	}
	b = appendKeyString(b, t.Op)
	b = strconv.AppendFloat(b, t.Sel, 'b', -1, 64)
	b = append(b, ',')
	b = appendKeyString(b, t.Label)
	b = appendKeyInts(b, t.Pred)
	b = appendTreeNode(b, t.Left)
	b = appendTreeNode(b, t.Right)
	return append(b, ')')
}

// appendKeyString appends s length-prefixed, so no string can run into
// the field after it.
func appendKeyString(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	return append(b, s...)
}

func appendKeyInts(b []byte, xs []int) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}
