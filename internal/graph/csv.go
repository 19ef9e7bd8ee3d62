package graph

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// CSV import, the paper's base-graph loading path: "Users import base input
// graphs to Graphsurge through csv files that contain the nodes and edges of
// the graphs and their properties."
//
// Node files have a header `id,prop:type,...`; edge files have a header
// `src,dst,prop:type,...` where type is one of int, string, bool (missing
// type defaults to string). External node IDs may be arbitrary strings; they
// are mapped to dense internal 64-bit IDs on load.

// parseHeader splits "name:type" header cells into property definitions.
func parseHeader(cells []string) ([]PropDef, error) {
	defs := make([]PropDef, 0, len(cells))
	for _, c := range cells {
		name, typ := c, "string"
		if i := strings.IndexByte(c, ':'); i >= 0 {
			name, typ = c[:i], c[i+1:]
		}
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("graph: empty property name in header cell %q", c)
		}
		var pt PropType
		switch strings.TrimSpace(typ) {
		case "int", "integer":
			pt = TypeInt
		case "string", "str":
			pt = TypeString
		case "bool", "boolean":
			pt = TypeBool
		default:
			return nil, fmt.Errorf("graph: unknown property type %q in header cell %q", typ, c)
		}
		defs = append(defs, PropDef{Name: name, Type: pt})
	}
	return defs, nil
}

func parseValue(s string, t PropType) (Value, error) {
	switch t {
	case TypeInt:
		i, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("graph: bad integer %q: %w", s, err)
		}
		return IntValue(i), nil
	case TypeBool:
		b, err := strconv.ParseBool(strings.TrimSpace(s))
		if err != nil {
			return Value{}, fmt.Errorf("graph: bad boolean %q: %w", s, err)
		}
		return BoolValue(b), nil
	default:
		return StringValue(s), nil
	}
}

// LoadCSV reads a property graph from node and edge CSV files. The node file
// may be empty (""), in which case nodes are inferred from edge endpoints and
// carry no properties.
func LoadCSV(name, nodesPath, edgesPath string) (*Graph, error) {
	g := &Graph{Name: name}
	ids := make(map[string]uint64)

	intern := func(ext string) uint64 {
		if id, ok := ids[ext]; ok {
			return id
		}
		id := uint64(len(ids))
		ids[ext] = id
		g.ExtIDs = append(g.ExtIDs, ext)
		return id
	}

	if nodesPath != "" {
		f, err := os.Open(nodesPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := readNodes(g, f, intern); err != nil {
			return nil, fmt.Errorf("%s: %w", nodesPath, err)
		}
	}

	f, err := os.Open(edgesPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := readEdges(g, f, intern, nodesPath != ""); err != nil {
		return nil, fmt.Errorf("%s: %w", edgesPath, err)
	}

	g.NumNodes = len(ids)
	if g.NodeProps != nil {
		// Validate will catch nodes that appeared only in the edge file.
		for i, c := range g.NodeProps.Cols {
			if c.Len() != g.NumNodes {
				return nil, fmt.Errorf("graph %s: node property %q covers %d of %d nodes (edge file introduced unknown nodes?)",
					name, g.NodeProps.Names[i], c.Len(), g.NumNodes)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func readNodes(g *Graph, r io.Reader, intern func(string) uint64) error {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("reading header: %w", err)
	}
	if len(header) < 1 || strings.TrimSpace(header[0]) != "id" {
		return fmt.Errorf("node file header must start with \"id\", got %q", header)
	}
	defs, err := parseHeader(header[1:])
	if err != nil {
		return err
	}
	g.NodeProps = NewPropTable(defs)
	row := make([]Value, len(defs))
	rows := 0
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if len(rec) != len(defs)+1 {
			return fmt.Errorf("line %d: %d fields, want %d", line, len(rec), len(defs)+1)
		}
		if id := intern(rec[0]); int(id) != rows {
			return fmt.Errorf("line %d: duplicate node id %q", line, rec[0])
		}
		rows++
		for i, d := range defs {
			v, err := parseValue(rec[i+1], d.Type)
			if err != nil {
				return fmt.Errorf("line %d: %w", line, err)
			}
			row[i] = v
		}
		if err := g.NodeProps.AppendRow(row); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
}

func readEdges(g *Graph, r io.Reader, intern func(string) uint64, nodesDeclared bool) error {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("reading header: %w", err)
	}
	if len(header) < 2 || strings.TrimSpace(header[0]) != "src" || strings.TrimSpace(header[1]) != "dst" {
		return fmt.Errorf("edge file header must start with \"src,dst\", got %q", header)
	}
	defs, err := parseHeader(header[2:])
	if err != nil {
		return err
	}
	g.EdgeProps = NewPropTable(defs)
	known := len(g.ExtIDs)
	row := make([]Value, len(defs))
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if len(rec) != len(defs)+2 {
			return fmt.Errorf("line %d: %d fields, want %d", line, len(rec), len(defs)+2)
		}
		src, dst := intern(rec[0]), intern(rec[1])
		if nodesDeclared {
			for i, id := range [2]uint64{src, dst} {
				if int(id) >= known {
					return fmt.Errorf("line %d: edge endpoint %q not in node file", line, rec[i])
				}
			}
		}
		g.Srcs = append(g.Srcs, src)
		g.Dsts = append(g.Dsts, dst)
		for i, d := range defs {
			v, err := parseValue(rec[i+2], d.Type)
			if err != nil {
				return fmt.Errorf("line %d: %w", line, err)
			}
			row[i] = v
		}
		if err := g.EdgeProps.AppendRow(row); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
}
