// Command mapload builds a persistent pictorial database from CSV
// point data and checkpoints it, ready for cmd/psql -db:
//
//	mapload -db atlas.db -relation cities -picture map points.csv
//
// The CSV must have a header row; two columns must be named x and y
// (coordinates in the picture frame). Every other column becomes an
// alphanumeric column: integer-parsable columns become int, float-
// parsable become float, the rest string. A loc column is appended
// automatically and the spatial index Hilbert-packed, as every
// relation's is.
//
//	name,state,population,x,y
//	Washington,DC,638333,827,596
//
// With -demo, the built-in US datasets are loaded instead of a CSV.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	pictdb "repro"
	"repro/internal/workload"
)

func main() {
	dbPath := flag.String("db", "pictdb.db", "database file to create or extend")
	relName := flag.String("relation", "objects", "relation name")
	picName := flag.String("picture", "map", "picture name")
	labelCol := flag.String("label", "", "column used as the display label (default: first string column)")
	demo := flag.Bool("demo", false, "load the built-in US datasets instead of a CSV")
	frame := flag.Float64("frame", 1000, "picture frame side length")
	flag.Parse()

	db, err := pictdb.Open(*dbPath, 256)
	if err != nil {
		fail("open: %v", err)
	}
	defer db.Close()

	if *demo {
		loadDemo(db)
	} else {
		if flag.NArg() != 1 {
			fail("usage: mapload [flags] points.csv (or -demo)")
		}
		loadCSV(db, flag.Arg(0), *relName, *picName, *labelCol, *frame)
	}

	if err := db.Checkpoint(); err != nil {
		fail("checkpoint: %v", err)
	}
	fmt.Printf("checkpointed %s (%d pages)\n", *dbPath, db.NumPages())
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mapload: "+format+"\n", args...)
	os.Exit(1)
}

// loadCSV builds one relation + picture from a CSV of point features.
func loadCSV(db *pictdb.Database, path, relName, picName, labelCol string, frame float64) {
	f, err := os.Open(path)
	if err != nil {
		fail("%v", err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	header, err := r.Read()
	if err != nil {
		fail("reading header: %v", err)
	}
	xi, yi := -1, -1
	for i, h := range header {
		switch strings.ToLower(strings.TrimSpace(h)) {
		case "x":
			xi = i
		case "y":
			yi = i
		}
	}
	if xi < 0 || yi < 0 {
		fail("header must contain x and y columns; got %v", header)
	}

	// Read all rows first to infer column types.
	var rows [][]string
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			fail("reading csv: %v", err)
		}
		rows = append(rows, rec)
	}
	if len(rows) == 0 {
		fail("no data rows in %s", path)
	}

	type colKind int
	const (
		kInt, kFloat, kString colKind = 0, 1, 2
	)
	kinds := make([]colKind, len(header))
	for ci := range header {
		if ci == xi || ci == yi {
			continue
		}
		kind := kInt
		for _, row := range rows {
			v := strings.TrimSpace(row[ci])
			if _, err := strconv.ParseInt(v, 10, 64); err == nil {
				continue
			}
			if _, err := strconv.ParseFloat(v, 64); err == nil {
				if kind == kInt {
					kind = kFloat
				}
				continue
			}
			kind = kString
			break
		}
		kinds[ci] = kind
	}

	// Build the schema: data columns in header order, then loc.
	var specs []string
	firstString := ""
	for ci, h := range header {
		if ci == xi || ci == yi {
			continue
		}
		name := strings.ToLower(strings.TrimSpace(h))
		switch kinds[ci] {
		case kInt:
			specs = append(specs, name+":int")
		case kFloat:
			specs = append(specs, name+":float")
		default:
			specs = append(specs, name+":string")
			if firstString == "" {
				firstString = name
			}
		}
	}
	specs = append(specs, "loc:loc")
	if labelCol == "" {
		labelCol = firstString
	}

	schema, err := pictdb.NewSchema(specs...)
	if err != nil {
		fail("schema: %v", err)
	}
	pic, err := db.CreatePicture(picName, pictdb.R(0, 0, frame, frame))
	if err != nil {
		fail("%v", err)
	}
	rel, err := db.CreateRelation(relName, schema)
	if err != nil {
		fail("%v", err)
	}

	for ln, row := range rows {
		x, err := strconv.ParseFloat(strings.TrimSpace(row[xi]), 64)
		if err != nil {
			fail("row %d: bad x %q", ln+2, row[xi])
		}
		y, err := strconv.ParseFloat(strings.TrimSpace(row[yi]), 64)
		if err != nil {
			fail("row %d: bad y %q", ln+2, row[yi])
		}
		label := ""
		tuple := make(pictdb.Tuple, 0, len(specs))
		for ci := range header {
			if ci == xi || ci == yi {
				continue
			}
			v := strings.TrimSpace(row[ci])
			switch kinds[ci] {
			case kInt:
				n, _ := strconv.ParseInt(v, 10, 64)
				tuple = append(tuple, pictdb.I(n))
			case kFloat:
				fv, _ := strconv.ParseFloat(v, 64)
				tuple = append(tuple, pictdb.F(fv))
			default:
				tuple = append(tuple, pictdb.S(v))
				if strings.ToLower(strings.TrimSpace(header[ci])) == labelCol {
					label = v
				}
			}
		}
		oid := pic.AddPoint(label, pictdb.Pt(x, y))
		tuple = append(tuple, pictdb.L(picName, oid))
		if _, err := rel.Insert(tuple); err != nil {
			fail("row %d: %v", ln+2, err)
		}
	}
	if err := rel.AttachPicture(pic, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		fail("%v", err)
	}
	fmt.Printf("loaded %d rows into %s on %s\n", len(rows), relName, picName)
}

// loadDemo reproduces BuildUSDatabase's content into the open file.
func loadDemo(db *pictdb.Database) {
	pic, err := db.CreatePicture("us-map", pictdb.R(0, 0, 1000, 1000))
	if err != nil {
		fail("%v", err)
	}
	rel, err := db.CreateRelation("cities", pictdb.MustSchema(
		"city:string", "state:string", "population:int", "loc:loc"))
	if err != nil {
		fail("%v", err)
	}
	for _, c := range workload.USCities() {
		oid := pic.AddPoint(c.Name, c.Pos)
		if _, err := rel.Insert(pictdb.Tuple{
			pictdb.S(c.Name), pictdb.S(c.State), pictdb.I(c.Population), pictdb.L("us-map", oid),
		}); err != nil {
			fail("%v", err)
		}
	}
	if err := rel.CreateIndex("population"); err != nil {
		fail("%v", err)
	}
	if err := rel.AttachPicture(pic, pictdb.PackOptions{Method: pictdb.PackHilbert}); err != nil {
		fail("%v", err)
	}
	fmt.Printf("loaded demo: %d cities on us-map\n", rel.Len())
}
