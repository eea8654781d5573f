package exp

import "testing"

// TestAllIDsMatchesRegistry pins the experiment index: AllIDs and the
// registry contain exactly the same identifiers, in registry order, with
// no duplicates, and Known accepts each of them.
func TestAllIDsMatchesRegistry(t *testing.T) {
	if len(AllIDs) != len(experiments) {
		t.Fatalf("AllIDs has %d entries, registry %d", len(AllIDs), len(experiments))
	}
	seen := map[string]bool{}
	for i, id := range AllIDs {
		if seen[id] {
			t.Errorf("AllIDs lists %q twice", id)
		}
		seen[id] = true
		if experiments[i].id != id {
			t.Errorf("AllIDs[%d] = %q, registry entry %d is %q", i, id, i, experiments[i].id)
		}
		if !Known(id) {
			t.Errorf("AllIDs lists %q but Known rejects it", id)
		}
	}
}

// TestCatalogCoversRegistry pins the single-source-of-truth invariant
// behind every experiment listing: Catalog describes exactly the AllIDs
// identifiers, in order, each with a title, so the CLI -list output and
// the daemon /experiments endpoint cannot drift.
func TestCatalogCoversRegistry(t *testing.T) {
	cat := Catalog()
	if len(cat) != len(AllIDs) {
		t.Fatalf("Catalog has %d entries, want %d", len(cat), len(AllIDs))
	}
	for i, info := range cat {
		if info.ID != AllIDs[i] {
			t.Errorf("Catalog[%d].ID = %q, want %q", i, info.ID, AllIDs[i])
		}
		if info.Title == "" {
			t.Errorf("experiment %q has no title", info.ID)
		}
	}
}
