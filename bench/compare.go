package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// compareMain implements -compare: judge the records of two -out files,
// base first.  With -repeat it first fills the files by running the
// benchmark of two checkouts N times each, alternating which side goes
// first so that drift of the machine lands on both.  The exit code is 1
// when any end-to-end row is worse or unresolved or any '#' counter
// differs.
func compareMain(files []string, repeat int, baseDir, headDir, names string, seed int64, seconds float64) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare takes two record files: base head")
		return 2
	}
	if repeat > 0 {
		if baseDir == "" || headDir == "" {
			fmt.Fprintln(os.Stderr, "bench: -repeat needs -base and -head checkouts")
			return 2
		}
		sides := [2]struct{ dir, file string }{{baseDir, files[0]}, {headDir, files[1]}}
		for i := 0; i < repeat; i++ {
			for k := 0; k < 2; k++ {
				side := sides[(i+k)%2]
				out, err := filepath.Abs(side.file)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 2
				}
				args := []string{"run", "-C", filepath.Join(side.dir, "bench"), ".", "-out", out,
					"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
				if names != "" {
					args = append(args, "-workload", names)
				}
				cmd := exec.Command("go", args...)
				cmd.Stderr = os.Stderr
				fmt.Fprintf(os.Stderr, "bench: pair %d/%d: %s\n", i+1, repeat, side.dir)
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "bench: run in %s: %v\n", side.dir, err)
					return 2
				}
			}
		}
	}
	base, err := readRecords(files[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	head, err := readRecords(files[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	bad := false
	fmt.Printf("%-14s %-18s %12s %12s %7s %6s %7s %7s  %s\n", "workload", "metric", "base", "head", "ratio", "bound", "spreadB", "spreadH", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			b, h := values(base, w.name, 0, d.Name), values(head, w.name, 0, d.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			row := judge(d, b, h)
			bad = bad || row.verdict == "worse" || row.verdict == "unresolved"
			fmt.Printf("%-14s %-18s %12.6g %12.6g %7.3f %6.2f %7.3f %7.3f  %s (n=%d,%d)\n",
				w.name, d.Name, row.base, row.head, row.head/row.base, d.Bound, row.spreadBase, row.spreadHead, row.verdict, len(b), len(h))
		}
	}
	for _, w := range workloads {
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			all := append(values(base, w.name, 1, d.Name), values(head, w.name, 1, d.Name)...)
			for _, v := range all {
				if v != all[0] {
					bad = true
					fmt.Printf("%-14s %-32s# differs across runs: %v\n", w.name, d.Name, all)
					break
				}
			}
		}
	}
	if bad {
		return 1
	}
	fmt.Println("every end-to-end row within its bound; every # counter identical")
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Comparable {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// values lists, in file order, one metric of one workload's runs.
func values(recs []record, workload string, traced int, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if s, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == traced && s.N > 0 {
			out = append(out, s.Value)
		}
	}
	return out
}

// judged is one row of the comparison.
type judged struct {
	base, head             float64 // medians
	spreadBase, spreadHead float64 // interquartile range ÷ median
	verdict                string
}

// judge applies the ledger's rules to one metric of one workload:
// unresolved when either side's own spread exceeds the bound; worse when
// the head median is worse than the base median by more than the bound;
// better when there are at least ten pairs (run i against run i), the head
// wins at least nine tenths of them and it is better by more than the
// base's interquartile range; unchanged otherwise.
func judge(d metricDef, base, head []float64) judged {
	b1, b2, b3 := quartiles(base)
	h1, h2, h3 := quartiles(head)
	j := judged{base: b2, head: h2, spreadBase: (b3 - b1) / b2, spreadHead: (h3 - h1) / h2}
	sign := 1.0 // positive change = worse
	if d.Better == "higher" {
		sign = -1
	}
	change := sign * (h2 - b2)
	wins, pairs := 0, min(len(base), len(head))
	for i := 0; i < pairs; i++ {
		if sign*(head[i]-base[i]) < 0 {
			wins++
		}
	}
	switch {
	case j.spreadBase > d.Bound || j.spreadHead > d.Bound:
		j.verdict = "unresolved"
	case change > d.Bound*b2:
		j.verdict = "worse"
	case pairs >= 10 && float64(wins) >= 0.9*float64(pairs) && -change > b3-b1:
		j.verdict = "better"
	default:
		j.verdict = "unchanged"
	}
	return j
}
