// Quickstart: build a small pictorial database, pack its spatial
// index, and run the paper's style of direct spatial search — all
// through the public pictdb API.
package main

import (
	"fmt"
	"log"

	pictdb "repro"
)

func main() {
	// 1. A database with one picture (a 100x100 site plan) and one
	// pictorial relation.
	db := pictdb.New()
	defer db.Close()

	plan, err := db.CreatePicture("site-plan", pictdb.R(0, 0, 100, 100))
	if err != nil {
		log.Fatal(err)
	}
	wells, err := db.CreateRelation("wells", pictdb.MustSchema(
		"name:string", "depth:int", "loc:loc"))
	if err != nil {
		log.Fatal(err)
	}

	// 2. Insert tuples whose loc column points at objects on the
	// picture — the paper's backward identifiers.
	for _, w := range []struct {
		name  string
		depth int64
		x, y  float64
	}{
		{"W-1", 120, 10, 15}, {"W-2", 80, 12, 18}, {"W-3", 200, 45, 40},
		{"W-4", 95, 48, 44}, {"W-5", 310, 80, 85}, {"W-6", 150, 83, 82},
		{"W-7", 60, 15, 80}, {"W-8", 170, 50, 90},
	} {
		oid := plan.AddPoint(w.name, pictdb.Pt(w.x, w.y))
		if _, err := wells.Insert(pictdb.Tuple{
			pictdb.S(w.name), pictdb.I(w.depth), pictdb.L("site-plan", oid),
		}); err != nil {
			log.Fatal(err)
		}
	}

	// 3. Pack the spatial index (PACK in Hilbert order: the database is
	// static, so pay a one-time build for tight leaves).
	if err := wells.AttachPicture(plan, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		log.Fatal(err)
	}

	// 4. Direct spatial search in PSQL: deep wells in the south-west
	// quadrant, selected on the picture.
	res, err := db.Query(`
		select name, depth, loc
		from   wells
		on     site-plan
		at     loc covered-by {25±25, 25±25}
		where  depth > 100`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("deep wells in the SW quadrant:")
	fmt.Print(res.Format())
	fmt.Printf("(%d R-tree nodes visited)\n\n", res.NodesVisited)

	// 5. The analog-form output device: draw the qualifying objects.
	out, err := db.Render(res, "site-plan", pictdb.R(0, 0, 100, 100))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out)

	// 6. The same index is available directly (Section 3 without the
	// relational layer): pack points and run a window query.
	items := []pictdb.IndexItem{}
	for i := 0; i < 32; i++ {
		p := pictdb.Pt(float64(i%8)*10, float64(i/8)*10)
		items = append(items, pictdb.IndexItem{Rect: p.Rect(), Data: int64(i)})
	}
	idx := pictdb.PackIndex(pictdb.DefaultRTreeParams(), items, pictdb.PackOptions{})
	found, visited := idx.Query(pictdb.R(0, 0, 25, 25))
	fmt.Printf("packed index: %d items in window, %d of %d nodes visited\n",
		len(found), visited, idx.NodeCount())
	m := idx.ComputeMetrics()
	fmt.Printf("coverage=%.0f overlap=%.0f depth=%d\n", m.Coverage, m.Overlap, m.Depth)
}
