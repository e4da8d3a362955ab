package pictdb_test

import (
	"fmt"

	pictdb "repro"
)

// ExampleDatabase_Query demonstrates the paper's §2.2 direct spatial
// search: select on the picture, qualify on the alphanumeric data.
func ExampleDatabase_Query() {
	db := pictdb.New()
	defer db.Close()

	pic, _ := db.CreatePicture("plan", pictdb.R(0, 0, 100, 100))
	rel, _ := db.CreateRelation("sites", pictdb.MustSchema(
		"name:string", "grade:int", "loc:loc"))
	for _, s := range []struct {
		name  string
		grade int64
		x, y  float64
	}{
		{"north-a", 9, 20, 80},
		{"north-b", 3, 60, 90},
		{"south-a", 8, 30, 20},
		{"south-b", 7, 70, 10},
	} {
		oid := pic.AddPoint(s.name, pictdb.Pt(s.x, s.y))
		rel.Insert(pictdb.Tuple{pictdb.S(s.name), pictdb.I(s.grade), pictdb.L("plan", oid)})
	}
	rel.AttachPicture(pic, pictdb.PackOptions{Method: pictdb.PackHilbert})

	res, err := db.Query(`
		select name, grade
		from   sites
		on     plan
		at     loc covered-by {50±50, 25±25}
		where  grade > 5
		order  by grade desc`)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Print(res.Format())
	// Output:
	// name     grade
	// -------  -----
	// south-a  8
	// south-b  7
}

// ExamplePackIndex shows the spatial index on its own: the paper's
// Section 3 without the relational layer.
func ExamplePackIndex() {
	items := make([]pictdb.IndexItem, 0, 16)
	for i := 0; i < 16; i++ {
		p := pictdb.Pt(float64(i%4)*10, float64(i/4)*10)
		items = append(items, pictdb.IndexItem{Rect: p.Rect(), Data: int64(i)})
	}
	idx := pictdb.PackIndex(pictdb.DefaultRTreeParams(), items, pictdb.PackOptions{Method: pictdb.PackNN})

	found, _ := idx.Query(pictdb.R(0, 0, 10, 10))
	fmt.Printf("items in window: %d\n", len(found))
	m := idx.ComputeMetrics()
	fmt.Printf("depth %d, %d nodes, overlap %.0f\n", m.Depth, m.Nodes, m.Overlap)
	// Output:
	// items in window: 4
	// depth 1, 5 nodes, overlap 0
}
