package analysis

import (
	"bufio"
	"os"
	"regexp"
	"strings"
	"testing"
)

// catalogRow is one parsed line of TESTING.md's analyzer table.
type catalogRow struct {
	name, escape, fixture string
}

// tableRowRE matches the data rows of the catalog table:
//
//	| `name` | invariant prose | `//lint:x` or — | `testdata/name/` |
var tableRowRE = regexp.MustCompile("^\\| `([a-z]+)` \\| .+ \\| (—|`//lint:[a-z-]+`) \\| `(testdata/[a-z]+/)` \\|$")

func readDocCatalog(t *testing.T) []catalogRow {
	t.Helper()
	f, err := os.Open("../../TESTING.md")
	if err != nil {
		t.Fatalf("open TESTING.md: %v", err)
	}
	defer f.Close()

	var rows []catalogRow
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := tableRowRE.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		escape := m[2]
		if escape == "—" {
			escape = ""
		} else {
			escape = strings.Trim(escape, "`")
		}
		rows = append(rows, catalogRow{name: m[1], escape: escape, fixture: m[3]})
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan TESTING.md: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("no catalog table rows found in TESTING.md (format changed?)")
	}
	return rows
}

// TestCatalogDrift pins TESTING.md's analyzer table to the registered
// set: the doc table must agree with All() and the directive registry row
// for row (same analyzers, same order, same escape directives, same
// fixture paths). Adding, renaming, or re-escaping an analyzer without
// updating the table fails here.
func TestCatalogDrift(t *testing.T) {
	doc := readDocCatalog(t)
	reg := All()
	if len(doc) != len(reg) {
		t.Fatalf("TESTING.md table has %d analyzers %v; registered set has %d", len(doc), doc, len(reg))
	}
	for i, a := range reg {
		want := catalogRow{name: a.Name, fixture: "testdata/" + a.Name + "/"}
		for dir, owner := range knownDirectives {
			if owner == a.Name {
				want.escape = "//lint:" + dir
			}
		}
		if doc[i] != want {
			t.Errorf("row %d: TESTING.md has %+v, registered %+v", i, doc[i], want)
		}
	}
}
