// Persistence: the paper's static-database lifecycle end to end. A
// pictorial database is built once, its spatial indexes packed, and
// the catalog checkpointed to a page file; a later process reopens the
// file and queries immediately — the one-time PACK investment amortized
// over the database's whole life.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	pictdb "repro"
	"repro/internal/workload"
)

func main() {
	dir, err := os.MkdirTemp("", "pictdb-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "atlas.db")

	build(path)
	reopen(path)
}

// build creates the database file: one picture, one packed relation,
// one checkpoint.
func build(path string) {
	db, err := pictdb.Open(path, 256)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	atlas, err := db.CreatePicture("atlas", pictdb.R(0, 0, 1000, 1000))
	if err != nil {
		log.Fatal(err)
	}
	cities, err := db.CreateRelation("cities", pictdb.MustSchema(
		"city:string", "state:string", "population:int", "loc:loc"))
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range workload.USCities() {
		oid := atlas.AddPoint(c.Name, c.Pos)
		if _, err := cities.Insert(pictdb.Tuple{
			pictdb.S(c.Name), pictdb.S(c.State), pictdb.I(c.Population), pictdb.L("atlas", oid),
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := cities.CreateIndex("population"); err != nil {
		log.Fatal(err)
	}
	if err := cities.AttachPicture(atlas, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		log.Fatal(err)
	}
	if err := db.DefineLocation("east", pictdb.R(600, 0, 1000, 1000)); err != nil {
		log.Fatal(err)
	}

	if err := db.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	st, _ := os.Stat(path)
	fmt.Printf("built %s: %d cities, packed index, checkpointed (%d pages, %d KiB)\n\n",
		filepath.Base(path), cities.Len(), db.NumPages(), st.Size()/1024)
}

// reopen loads the file as a fresh process would and queries at once.
func reopen(path string) {
	db, err := pictdb.Open(path, 64)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	res, err := db.Query(`
		select city, population, loc
		from   cities
		on     atlas
		at     loc covered-by east
		where  population > 500_000
		order  by population desc
		limit  8`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("reopened; largest eastern cities (direct spatial search on the reloaded index):")
	fmt.Print(res.Format())
	for _, step := range res.Plan {
		fmt.Printf("plan: %s\n", step)
	}
	fmt.Printf("(%d R-tree nodes visited)\n", res.NodesVisited)
}
