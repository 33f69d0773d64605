package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// docTable ties one EXPERIMENTS.md table to the committed CSV it quotes:
// the section holding the table, the CSV, and for each quoted column the
// CSV columns its numbers come from, in order ("BW min–max" quotes two).
type docTable struct {
	section string
	csv     string
	cols    map[string][]string
}

// TestExperimentsTablesMatchOut keeps EXPERIMENTS.md's Scale and
// Hierscale tables in step with out/: every number they quote must equal
// the CSV value rounded to the quoted number of decimals, and a "—" cell
// stands for 0. Rows are matched on topology (the first word of the
// first cell) and, where the table has one, mode.
func TestExperimentsTablesMatchOut(t *testing.T) {
	root := filepath.Join("..", "..")
	doc, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	tables := []docTable{
		{"## Scale", "ext_scale.csv", map[string][]string{
			"Jobs":            {"jobs"},
			"BW mean (MiB/s)": {"bw_mean_mibs"},
			"BW min–max":      {"bw_min", "bw_max"},
			"Peak flows":      {"peak_flows"},
			"Solves/event":    {"solves_per_event"},
		}},
		{"## Hierscale", "ext_hierscale.csv", map[string][]string{
			"Jobs":            {"jobs"},
			"BW mean (MiB/s)": {"bw_mean_mibs"},
			"Peak flows":      {"peak_flows"},
			"Hier solves":     {"hier_solves"},
			"Outer rounds":    {"outer_rounds"},
			"Exact fallbacks": {"exact_fallbacks"},
			"Max rel err":     {"max_rel_err"},
		}},
	}
	for _, tab := range tables {
		t.Run(tab.csv, func(t *testing.T) {
			header, rows := markdownTable(t, string(doc), tab.section)
			want := readCSV(t, filepath.Join(root, "out", tab.csv))
			if len(rows) != len(want) {
				t.Fatalf("EXPERIMENTS.md quotes %d rows, %s has %d", len(rows), tab.csv, len(want))
			}
			checked := 0
			for _, row := range rows {
				topo := strings.Fields(row[0])[0]
				mode := ""
				if header[1] == "Mode" {
					mode = row[1]
				}
				rec := findRow(want, topo, mode)
				if rec == nil {
					t.Fatalf("no %s row for topology %q mode %q", tab.csv, topo, mode)
				}
				for i, h := range header {
					csvCols, ok := tab.cols[h]
					if !ok {
						continue
					}
					quoted := strings.Split(row[i], "–")
					if len(quoted) != len(csvCols) {
						t.Fatalf("%s/%s %q: %d numbers, want %d", topo, h, row[i], len(quoted), len(csvCols))
					}
					for k, q := range quoted {
						if !quotedMatches(q, rec[csvCols[k]]) {
							t.Errorf("%s %s %s: EXPERIMENTS.md quotes %q, %s has %s", topo, mode, h, q, tab.csv, rec[csvCols[k]])
						}
						checked++
					}
				}
			}
			if checked == 0 {
				t.Fatal("no quoted number was checked")
			}
		})
	}
}

// markdownTable returns the header and body cells of the first table
// after the heading that starts with section.
func markdownTable(t *testing.T, doc, section string) ([]string, [][]string) {
	t.Helper()
	start := strings.Index(doc, "\n"+section)
	if start < 0 {
		t.Fatalf("EXPERIMENTS.md has no %q section", section)
	}
	var table [][]string
	for _, line := range strings.Split(doc[start+1:], "\n")[1:] {
		if strings.HasPrefix(line, "#") {
			break
		}
		if !strings.HasPrefix(line, "|") {
			if len(table) > 0 {
				break
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		table = append(table, cells)
	}
	if len(table) < 3 {
		t.Fatalf("section %q has no table", section)
	}
	return table[0], table[2:] // skip the |---| separator
}

// readCSV returns the rows of a CSV file as header-keyed maps.
func readCSV(t *testing.T, path string) []map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]string
	for _, rec := range recs[1:] {
		row := map[string]string{}
		for i, h := range recs[0] {
			row[h] = rec[i]
		}
		rows = append(rows, row)
	}
	return rows
}

func findRow(rows []map[string]string, topo, mode string) map[string]string {
	for _, r := range rows {
		if r["topology"] == topo && (mode == "" || r["mode"] == mode) {
			return r
		}
	}
	return nil
}

// quotedMatches reports whether the quoted number q is the CSV value v
// rounded to q's decimals; "—" quotes 0.
func quotedMatches(q, v string) bool {
	x, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return false
	}
	if q == "—" {
		return x == 0
	}
	decimals := 0
	if i := strings.IndexByte(q, '.'); i >= 0 {
		decimals = len(q) - i - 1
	}
	return strconv.FormatFloat(x, 'f', decimals, 64) == q
}
