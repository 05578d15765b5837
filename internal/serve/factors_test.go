package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"sparselr/internal/core"
	"sparselr/internal/gen"
)

// wantFactorNames is the documented factor layout of every method, in
// the order the job view lists them.
var wantFactorNames = map[core.Method][]string{
	core.RandQBEI:    {"Q", "B"},
	core.RandUBV:     {"U", "B", "V"},
	core.LUCRTP:      {"L", "U"},
	core.ILUTCRTP:    {"L", "U"},
	core.TSVD:        {"U", "S", "V"},
	core.RSVDRestart: {"U", "S", "V"},
	core.ARRF:        {"Q"},
	core.CUR:         {"C", "U", "R"},
	core.TwoSidedID:  {"C", "U", "R"},
	core.ACA:         {"C", "U", "R"},
}

// TestServerFactorExportEveryMethod solves one small upload with every
// registered method and downloads every listed factor both ways: the
// JSON and MatrixMarket renderings must agree on shape, and the entry
// counts of the downloads must add up to the reported factor_nnz.
func TestServerFactorExportEveryMethod(t *testing.T) {
	srv := NewServer(Config{Workers: 2, QueueDepth: 16})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	var buf strings.Builder
	if err := gen.RandLowRank(60, 48, 24, 0.7, 6, 3).WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	upload := buf.String()

	for _, mi := range core.Methods() {
		t.Run(mi.Name, func(t *testing.T) {
			url := ts.URL + "/v1/jobs?method=" + mi.Name + "&tol=1e-2&k=4&seed=1&wait=60s"
			resp, err := http.Post(url, "text/plain", strings.NewReader(upload))
			if err != nil {
				t.Fatal(err)
			}
			var sr submitResponse
			json.NewDecoder(resp.Body).Decode(&sr)
			resp.Body.Close()
			if sr.Status != StatusDone || sr.Result == nil || sr.Result.Rank <= 0 {
				t.Fatalf("solve failed: code=%d view=%+v", resp.StatusCode, sr)
			}
			if want := wantFactorNames[mi.Method]; !reflect.DeepEqual(sr.Result.Factors, want) {
				t.Fatalf("factors = %v, want %v", sr.Result.Factors, want)
			}
			entries := 0
			for _, name := range sr.Result.Factors {
				base := ts.URL + "/v1/jobs/" + sr.ID + "/factors/" + name
				rows, cols, n := downloadMM(t, base+"?format=mm")
				jrows, jcols := downloadJSON(t, base)
				if jrows != rows || jcols != cols {
					t.Fatalf("factor %s: JSON %d×%d, MatrixMarket %d×%d", name, jrows, jcols, rows, cols)
				}
				entries += n
			}
			if entries != sr.Result.NNZFactors {
				t.Fatalf("downloaded factors hold %d entries, factor_nnz = %d", entries, sr.Result.NNZFactors)
			}
		})
	}
}

// downloadMM fetches one factor as MatrixMarket and returns its shape
// and stored entry count (nnz for coordinate, rows·cols for array),
// checking that the body holds exactly that many value lines.
func downloadMM(t *testing.T, url string) (rows, cols, entries int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("GET %s: empty body", url)
	}
	header := sc.Text()
	if !sc.Scan() {
		t.Fatalf("GET %s: no size line", url)
	}
	switch header {
	case "%%MatrixMarket matrix coordinate real general":
		if _, err := fmt.Sscan(sc.Text(), &rows, &cols, &entries); err != nil {
			t.Fatalf("GET %s: size line %q: %v", url, sc.Text(), err)
		}
	case "%%MatrixMarket matrix array real general":
		if _, err := fmt.Sscan(sc.Text(), &rows, &cols); err != nil {
			t.Fatalf("GET %s: size line %q: %v", url, sc.Text(), err)
		}
		entries = rows * cols
	default:
		t.Fatalf("GET %s: bad MatrixMarket header %q", url, header)
	}
	lines := 0
	for sc.Scan() {
		lines++
	}
	if lines != entries {
		t.Fatalf("GET %s: %d value lines, header promises %d", url, lines, entries)
	}
	return rows, cols, entries
}

// downloadJSON fetches one factor as JSON and returns its shape: a
// matrix payload's rows×cols (checked against its data length) or a
// vector payload as len×1.
func downloadJSON(t *testing.T, url string) (rows, cols int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var fj struct {
		Rows   int       `json:"rows"`
		Cols   int       `json:"cols"`
		Data   []float64 `json:"data"`
		Values []float64 `json:"values"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fj); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if fj.Values != nil {
		return len(fj.Values), 1
	}
	if len(fj.Data) != fj.Rows*fj.Cols {
		t.Fatalf("GET %s: %d×%d payload holds %d values", url, fj.Rows, fj.Cols, len(fj.Data))
	}
	return fj.Rows, fj.Cols
}
