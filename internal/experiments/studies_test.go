package experiments

import (
	"slices"
	"testing"
)

func TestStudiesTable(t *testing.T) {
	seen := make(map[string]bool)
	for _, s := range Studies {
		if s.Name == "" || seen[s.Name] {
			t.Errorf("study name %q is empty or repeated", s.Name)
		}
		seen[s.Name] = true
		if s.Section == "" {
			t.Errorf("%s: no paper section", s.Name)
		}
		if s.Run == nil {
			t.Errorf("%s: no run", s.Name)
		}
		for _, r := range s.Reads {
			if !slices.Contains([]string{"users", "reps", "rsa-bits"}, r) {
				t.Errorf("%s reads %q, which is not a Params field (users, reps, rsa-bits)", s.Name, r)
			}
		}
	}
}
