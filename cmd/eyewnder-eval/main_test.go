package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"eyewnder/internal/experiments"
)

// runArgs runs the command in process and returns its exit code,
// stdout and stderr.
func runArgs(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestListNamesEveryStudy(t *testing.T) {
	code, out, _ := runArgs("-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(experiments.Studies) {
		t.Fatalf("-list printed %d lines for %d studies:\n%s", len(lines), len(experiments.Studies), out)
	}
	for i, s := range experiments.Studies {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != s.Name {
			t.Errorf("-list line %d = %q, want study %q", i, lines[i], s.Name)
		}
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	cases := [][]string{
		{},
		{"-users", "40"},
		{"fig6"},
		{"table1", "fig3"},
		{"table1", "-users", "40", "fig3"},
		{"-users", "40", "table1"},
		{"-list", "table1"},
		{"table1", "-list"},
		{"table1", "-bogus"},
	}
	for _, s := range experiments.Studies {
		for _, param := range []string{"users", "reps", "rsa-bits"} {
			if !slices.Contains(s.Reads, param) {
				cases = append(cases, []string{s.Name, "-" + param, "40"})
			}
		}
	}
	for _, args := range cases {
		code, out, errOut := runArgs(args...)
		if code != 2 || out != "" {
			t.Errorf("%q: exit %d, stdout %q; want exit 2 and no output", args, code, out)
		}
		if errOut == "" {
			t.Errorf("%q: no message on stderr", args)
		}
	}
}

func TestStudyPrintsItsRun(t *testing.T) {
	var want bytes.Buffer
	if err := experiments.Studies[slices.IndexFunc(experiments.Studies, func(s experiments.Study) bool {
		return s.Name == "table1"
	})].Run(experiments.Params{Users: 40}, &want); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runArgs("table1", "-users", "40")
	if code != 0 || out != want.String() {
		t.Errorf("exit %d, stderr %q, stdout\n%s\nwant\n%s", code, errOut, out, want.String())
	}
	if !strings.Contains(want.String(), "Number of users              40") {
		t.Errorf("table1 -users 40 does not report 40 users:\n%s", want.String())
	}
}
