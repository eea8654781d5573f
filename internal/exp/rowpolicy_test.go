package exp

import "testing"

func TestAblationRowPolicyShape(t *testing.T) {
	tab, err := ablation(t, testLab(), "row-policy")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}
