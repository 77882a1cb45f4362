package jsontext_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/dataspace/automed/internal/iql/iqltest"
	"github.com/dataspace/automed/internal/jsontext"
)

// TestAppendStringHTMLMatchesMarshal: the HTML-escaping variant writes
// what json.Marshal writes, for every edge string. (AppendString and
// AppendFloat are held to the same standard by package server's answer
// encoding tests.)
func TestAppendStringHTMLMatchesMarshal(t *testing.T) {
	for _, s := range append([]string{"<>&", "a<b", "&&", "x>"}, iqltest.Strings...) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := jsontext.AppendStringHTML(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendStringHTML(%q) = %s, want %s", s, got, want)
		}
	}
}
