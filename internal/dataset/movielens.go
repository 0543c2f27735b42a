package dataset

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// LoadMovieLens100K parses the classic MovieLens-100k `u.data` format:
// one interaction per line, tab-separated "user item rating timestamp",
// with 1-based user and item ids. Ratings are binarized (any rating is
// an observed interaction, per §V-A of the paper) and each user's
// interactions are ordered by timestamp so PRME sees real sequences.
//
// The synthetic generators are the default substrate (the module is
// built offline); this loader exists so users with the real trace can
// reproduce on it directly.
func LoadMovieLens100K(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: open movielens file: %w", err)
	}
	defer f.Close()
	return ParseMovieLens(f, "movielens-100k")
}

type interaction struct {
	user, item int
	ts         int64
}

// ParseMovieLens reads u.data-formatted interactions from r.
// Malformed lines produce an error rather than being skipped, so a
// truncated download is caught immediately.
func ParseMovieLens(r io.Reader, name string) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var rows []interaction
	maxUser, maxItem := -1, -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 3 {
			return nil, fmt.Errorf("dataset: %s line %d: want >=3 fields, got %d", name, line, len(fields))
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("dataset: %s line %d: bad user id: %w", name, line, err)
		}
		it, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("dataset: %s line %d: bad item id: %w", name, line, err)
		}
		var ts int64
		if len(fields) >= 4 {
			ts, err = strconv.ParseInt(fields[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: %s line %d: bad timestamp: %w", name, line, err)
			}
		}
		if u < 1 || it < 1 {
			return nil, fmt.Errorf("dataset: %s line %d: ids must be 1-based positive", name, line)
		}
		rows = append(rows, interaction{user: u - 1, item: it - 1, ts: ts})
		if u-1 > maxUser {
			maxUser = u - 1
		}
		if it-1 > maxItem {
			maxItem = it - 1
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: %s: scan: %w", name, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: %s: no interactions", name)
	}

	sort.SliceStable(rows, func(a, b int) bool {
		if rows[a].user != rows[b].user {
			return rows[a].user < rows[b].user
		}
		return rows[a].ts < rows[b].ts
	})

	d := &Dataset{
		Name:     name,
		NumUsers: maxUser + 1,
		NumItems: maxItem + 1,
		Train:    make([][]int, maxUser+1),
		Test:     make([][]int, maxUser+1),
	}
	for _, row := range rows {
		// Deduplicate repeat interactions, keeping first occurrence.
		dup := false
		for _, prev := range d.Train[row.user] {
			if prev == row.item {
				dup = true
				break
			}
		}
		if !dup {
			d.Train[row.user] = append(d.Train[row.user], row.item)
		}
	}
	d.finalize()
	return d, nil
}
