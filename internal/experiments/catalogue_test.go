package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestSpecsCatalogue: every entry has a unique name and one non-empty
// title, and its table printer heads the table with exactly that title.
// The order is benchsuite's -exp all order.
func TestSpecsCatalogue(t *testing.T) {
	var names []string
	seen := map[string]bool{}
	for _, s := range Specs() {
		names = append(names, s.Name)
		if seen[s.Name] {
			t.Errorf("duplicate name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Title == "" {
			t.Errorf("%s: empty title", s.Name)
		}
		var buf bytes.Buffer
		s.table(&buf)
		heading, _, _ := strings.Cut(strings.TrimLeft(buf.String(), "\n"), "\n")
		if want := "== " + s.Title + " =="; heading != want {
			t.Errorf("%s: heading %q, want %q", s.Name, heading, want)
		}
		if got, ok := Lookup(s.Name); !ok || got.Title != s.Title {
			t.Errorf("Lookup(%q) = %q, %v", s.Name, got.Title, ok)
		}
	}
	want := []string{"fig1a", "fig1b", "table1", "table2", "fig3a", "fig3b", "fig4",
		"ablations", "readpath", "hetero", "prep", "faults", "mergescale", "iotune", "latency", "sla"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("catalogue order %v, want %v", names, want)
	}
	if _, ok := Lookup("all"); ok {
		t.Error(`Lookup("all") found an entry`)
	}
}
