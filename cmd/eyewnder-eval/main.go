// Command eyewnder-eval prints every number of the paper's evaluation,
// one study per run: the privacy-protocol overhead study (Section 7.1),
// the Figure 2 distribution comparison, the controlled simulation study
// (Section 7.2), the live-validation analogue (Section 7.3) and the
// socio-economic bias analysis (Section 8):
//
//	eyewnder-eval -list                  # every study: name, paper section, parameters read
//	eyewnder-eval overhead               # CMS sizes, blinding traffic/compute, OPRF latency
//	eyewnder-eval fig3 -users 40 -reps 2 # FN% vs frequency cap (Figure 3)
//	eyewnder-eval fpstudy -reps 30       # false-positive configurations (§7.2.2)
//
// The study comes first and its flags after it. The studies are
// experiments.Studies; a parameter the study does not read is a usage
// error, as are a missing, unknown or second study.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"eyewnder/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the one study they name, and returns the exit
// code: 0 on success, 1 if the study fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	var p experiments.Params
	fs := flag.NewFlagSet("eyewnder-eval", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&p.Users, "users", 0, "population: the Table 1 base (N users, 4·N campaigns) or the Figure 2 users (0 = the study's default)")
	fs.IntVar(&p.Reps, "reps", 0, "repetitions: repeats per Figure 3 cap, or fpstudy configurations (0 = the study's default: 1, 30)")
	fs.IntVar(&p.RSABits, "rsa-bits", 0, "OPRF RSA modulus (0 = 1024, the paper's)")
	list := fs.Bool("list", false, "print the studies: name, paper section, parameters read")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: eyewnder-eval <study> [-users N] [-reps N] [-rsa-bits N], or eyewnder-eval -list")
		fs.PrintDefaults()
	}
	// flag stops at the first positional argument, so the study is taken
	// off the front and the flags after it are parsed on their own.
	name := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return usage(stderr, "unexpected %q: one study per run, flags after it", fs.Arg(0))
	case *list && name == "":
		for _, s := range experiments.Studies {
			fmt.Fprintln(stdout, strings.TrimSpace(fmt.Sprintf("%-10s %-26s %s", s.Name, s.Section, strings.Join(s.Reads, " "))))
		}
		return 0
	case name == "":
		return usage(stderr, "no study given (see -list)")
	}
	i := slices.IndexFunc(experiments.Studies, func(s experiments.Study) bool { return s.Name == name })
	if i < 0 {
		return usage(stderr, "unknown study %q (see -list)", name)
	}
	study := experiments.Studies[i]
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(study.Reads, f.Name) {
			unread = append(unread, "-"+f.Name)
		}
	})
	if len(unread) > 0 {
		return usage(stderr, "%s: not read by %s (see -list)", strings.Join(unread, " "), study.Name)
	}
	if err := study.Run(p, stdout); err != nil {
		fmt.Fprintf(stderr, "eyewnder-eval: %s: %v\n", study.Name, err)
		return 1
	}
	return 0
}

// usage prints a one-line usage error and returns its exit code.
func usage(stderr io.Writer, format string, args ...any) int {
	fmt.Fprintf(stderr, "eyewnder-eval: "+format+"\n", args...)
	return 2
}
