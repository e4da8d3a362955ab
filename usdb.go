package pictdb

import (
	"fmt"

	"repro/internal/pack"
	"repro/internal/workload"
)

// BuildUSDatabase constructs the paper's running-example database: the
// cities, states, time-zones, lakes and highways relations of §2.1,
// each associated with its own picture (us-map, state-map,
// time-zone-map, lake-map, highway-map), spatially indexed with packed
// R-trees, and with B-tree indexes on the alphanumeric key columns.
// The data comes from the built-in 1980-era geographic datasets.
func BuildUSDatabase() (*Database, error) {
	db := New()
	if err := populateUS(db); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// BuildUSDatabaseFile builds the same database persistently at path
// and checkpoints it, so it can be reopened with Open.
func BuildUSDatabaseFile(path string, poolPages int) (*Database, error) {
	db, err := Open(path, poolPages)
	if err != nil {
		return nil, err
	}
	if err := populateUS(db); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// populateUS fills db with the §2.1 relations and pictures.
func populateUS(db *Database) error {
	frame := workload.Frame

	for _, name := range []string{"us-map", "state-map", "time-zone-map", "lake-map", "highway-map"} {
		if _, err := db.CreatePicture(name, frame); err != nil {
			return err
		}
	}
	usMap, _ := db.Picture("us-map")
	stateMap, _ := db.Picture("state-map")
	tzMap, _ := db.Picture("time-zone-map")
	lakeMap, _ := db.Picture("lake-map")
	hwyMap, _ := db.Picture("highway-map")

	// cities(city, state, population, loc) on us-map.
	cities, err := db.CreateRelation("cities", MustSchema(
		"city:string", "state:string", "population:int", "loc:loc"))
	if err != nil {
		return err
	}
	for _, c := range workload.USCities() {
		oid := usMap.AddPoint(c.Name, c.Pos)
		if _, err := cities.Insert(Tuple{S(c.Name), S(c.State), I(c.Population), L("us-map", oid)}); err != nil {
			return fmt.Errorf("cities: %w", err)
		}
	}
	if err := cities.CreateIndex("city"); err != nil {
		return err
	}
	if err := cities.CreateIndex("population"); err != nil {
		return err
	}

	// states(state, population-density, loc) on state-map.
	states, err := db.CreateRelation("states", MustSchema(
		"state:string", "population-density:float", "loc:loc"))
	if err != nil {
		return err
	}
	for _, s := range workload.USStates() {
		oid := stateMap.AddRegion(s.Name, s.Poly)
		if _, err := states.Insert(Tuple{S(s.Name), F(s.Attr), L("state-map", oid)}); err != nil {
			return fmt.Errorf("states: %w", err)
		}
	}
	if err := states.CreateIndex("state"); err != nil {
		return err
	}

	// time-zones(zone, hour-diff, loc) on time-zone-map.
	zones, err := db.CreateRelation("time-zones", MustSchema(
		"zone:string", "hour-diff:float", "loc:loc"))
	if err != nil {
		return err
	}
	for _, z := range workload.USTimeZones() {
		oid := tzMap.AddRegion(z.Name, z.Poly)
		if _, err := zones.Insert(Tuple{S(z.Name), F(z.Attr), L("time-zone-map", oid)}); err != nil {
			return fmt.Errorf("time-zones: %w", err)
		}
	}

	// lakes(lake, area, loc) on lake-map.
	lakes, err := db.CreateRelation("lakes", MustSchema(
		"lake:string", "area:float", "loc:loc"))
	if err != nil {
		return err
	}
	for _, l := range workload.USLakes() {
		oid := lakeMap.AddRegion(l.Name, l.Poly)
		if _, err := lakes.Insert(Tuple{S(l.Name), F(l.Attr), L("lake-map", oid)}); err != nil {
			return fmt.Errorf("lakes: %w", err)
		}
	}

	// highways(hwy-name, hwy-section, loc) on highway-map.
	highways, err := db.CreateRelation("highways", MustSchema(
		"hwy-name:string", "hwy-section:string", "loc:loc"))
	if err != nil {
		return err
	}
	for _, h := range workload.USHighways() {
		oid := hwyMap.AddSegment(h.Name, h.Seg)
		if _, err := highways.Insert(Tuple{S(h.Name), S(h.Section), L("highway-map", oid)}); err != nil {
			return fmt.Errorf("highways: %w", err)
		}
	}
	if err := highways.CreateIndex("hwy-name"); err != nil {
		return err
	}

	// Pack every spatial index (Hilbert order, as every relation's is);
	// the database is static from here on, the configuration the paper
	// optimizes for.
	packOpts := pack.Options{Method: pack.MethodHilbert}
	for _, assoc := range []struct {
		rel *Relation
		pic *Picture
	}{
		{cities, usMap},
		{states, stateMap},
		{zones, tzMap},
		{lakes, lakeMap},
		{highways, hwyMap},
	} {
		if err := assoc.rel.AttachPicture(assoc.pic, packOpts); err != nil {
			return err
		}
	}

	// The paper's example predefined location: the Eastern US window
	// used in §2.2 (scaled to the frame).
	if err := db.DefineLocation("eastern-us", R(600, 0, 1000, 1000)); err != nil {
		return err
	}
	return db.DefineLocation("western-us", R(0, 0, 400, 1000))
}
