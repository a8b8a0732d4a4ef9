package workload

import "strconv"

// The stock benchmarks name tasks and sync objects "prefix<index>". Those
// names are stable across runs, so formatting them on every spawn into a
// recycled VM is pure churn — each package keeps small pre-built tables for
// the index ranges the paper's configurations use and falls back to
// formatting only past the table.
const nameTableSize = 64

var (
	syncTaskNames = makeNames("sync.", nameTableSize)
	syncPairNames = makeNames("sync.pair", nameTableSize)
	// parsecNameTables holds each stock PARSEC profile's thread and lock
	// stripe names. It is built once at package init and only read after,
	// so concurrent experiment workers share it without a race.
	parsecNameTables = makeParsecNames()
)

// parsecNames are one profile's "<name>.<i>" thread names and
// "<name>.lock<i>" stripe names (SpawnParallel takes one stripe per four
// threads).
type parsecNames struct {
	tasks, locks []string
}

func makeParsecNames() map[string]parsecNames {
	out := make(map[string]parsecNames)
	for _, p := range Profiles() {
		out[p.Name] = parsecNames{
			tasks: makeNames(p.Name+".", nameTableSize),
			locks: makeNames(p.Name+".lock", nameTableSize/4),
		}
	}
	return out
}

func makeNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + strconv.Itoa(i)
	}
	return out
}

// indexedName returns tab[i] when the table covers i, and formats
// base+suffix+i otherwise. The prefix comes in two parts so that a caller
// with a per-profile prefix joins nothing on a table hit.
func indexedName(tab []string, base, suffix string, i int) string {
	if i < len(tab) {
		return tab[i]
	}
	return base + suffix + strconv.Itoa(i)
}
