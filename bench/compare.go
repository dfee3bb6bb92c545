package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json -compare reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first quartile, median and third quartile of
// values the way Python's statistics.quantiles(values, n=4) does (the
// exclusive method).
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := sortedCopy(values)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), len(d)-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// loadSet reads every end-to-end report in dir, grouped as
// workload → metric → values.
func loadSet(dir string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	set := map[string]map[string][]float64{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(b, &rep); err != nil || rep.Mode != "e2e" {
			continue
		}
		if set[rep.Workload] == nil {
			set[rep.Workload] = map[string][]float64{}
		}
		for name, m := range rep.Metrics {
			set[rep.Workload][name] = append(set[rep.Workload][name], m.Value)
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end reports", dir)
	}
	return set, nil
}

// compareSets prints, for every workload × end-to-end metric, each set's
// median and quartiles and whether B's median is within the metric's
// bound of A's. It reports false on any breach or missing metric.
func compareSets(w io.Writer, specPath, dirA, dirB string) (bool, error) {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := loadSet(dirA)
	if err != nil {
		return false, err
	}
	bset, err := loadSet(dirB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn(A)\tA median [q1, q3]\tspread(A)\tn(B)\tB median [q1, q3]\tspread(B)\tworse by\tbound\tverdict")
	ok := true
	for _, spw := range spec.Workloads {
		wl := spw.Name
		for _, m := range spec.EndToEnd {
			va, vb := a[wl][m.Name], bset[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				ok = false
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t\t\t%d\t\t\t\t%.3f\tMISSING\n", wl, m.Name, m.Unit, len(va), len(vb), m.Bound)
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			worse := ratio(b2-a2, a2)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict, ok = "BREACH", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.4g [%.4g, %.4g]\t%.2f%%\t%d\t%.4g [%.4g, %.4g]\t%.2f%%\t%+.2f%%\t%.0f%%\t%s\n",
				wl, m.Name, m.Unit, len(va), a2, a1, a3, 100*ratio(a3-a1, a2),
				len(vb), b2, b1, b3, 100*ratio(b3-b1, b2), 100*worse, 100*m.Bound, verdict)
		}
	}
	return ok, tw.Flush()
}
