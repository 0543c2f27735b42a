package dataset

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleUData = `1	10	5	100
1	20	3	50
2	10	4	10
2	30	2	99
3	5	1	1
`

func TestParseMovieLens(t *testing.T) {
	d, err := ParseMovieLens(strings.NewReader(sampleUData), "sample")
	if err != nil {
		t.Fatal(err)
	}
	if d.NumUsers != 3 || d.NumItems != 30 {
		t.Fatalf("shape %d/%d, want 3/30", d.NumUsers, d.NumItems)
	}
	// User 0's items must be timestamp-ordered: item 19 (ts 50), item 9 (ts 100).
	if len(d.Train[0]) != 2 || d.Train[0][0] != 19 || d.Train[0][1] != 9 {
		t.Fatalf("user 0 sequence %v, want [19 9]", d.Train[0])
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseMovieLensDeduplicates(t *testing.T) {
	in := "1\t10\t5\t1\n1\t10\t4\t2\n1\t11\t3\t3\n"
	d, err := ParseMovieLens(strings.NewReader(in), "dup")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Train[0]) != 2 {
		t.Fatalf("duplicates not removed: %v", d.Train[0])
	}
}

func TestParseMovieLensErrors(t *testing.T) {
	cases := map[string]string{
		"too few fields": "1\t2\n",
		"bad user":       "x\t2\t3\t4\n",
		"bad item":       "1\ty\t3\t4\n",
		"bad timestamp":  "1\t2\t3\tz\n",
		"zero id":        "0\t2\t3\t4\n",
		"empty":          "",
	}
	for name, in := range cases {
		if _, err := ParseMovieLens(strings.NewReader(in), name); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestParseMovieLensSkipsBlankLines(t *testing.T) {
	in := "1\t10\t5\t1\n\n   \n2\t11\t4\t2\n"
	d, err := ParseMovieLens(strings.NewReader(in), "blank")
	if err != nil {
		t.Fatal(err)
	}
	if d.NumUsers != 2 {
		t.Fatalf("users = %d, want 2", d.NumUsers)
	}
}

func TestLoadMovieLens100K(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "u.data")
	if err := os.WriteFile(path, []byte(sampleUData), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := LoadMovieLens100K(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumUsers != 3 {
		t.Fatalf("users = %d", d.NumUsers)
	}
	if _, err := LoadMovieLens100K(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("expected error for missing file")
	}
}
