package detlint

import (
	"go/ast"
	"go/types"
)

// Maporder flags `for range` over a map whose body reaches a
// serialization or output sink: Go randomizes map iteration order, so
// any bytes emitted from inside such a loop differ run to run, which
// breaks the byte-identical journal/checkpoint/report contract the
// engine and flight recorder are built on. The blessed idiom is to
// collect the keys, sort them, and range over the sorted slice — a
// slice range, which this analyzer never flags.
//
// Sinks, checked anywhere inside the loop body:
//   - fmt.Fprint / Fprintf / Fprintln (ordered bytes to a writer)
//   - encoding/json Marshal / MarshalIndent and (*json.Encoder).Encode
//   - Write / WriteString / WriteByte / WriteRune methods (building
//     output or feeding a hash in iteration order)
//   - the flight journal emitter (Emit) and report
//     Render methods
var Maporder = &Analyzer{
	Name: "maporder",
	Doc: "flags map iteration whose body reaches a serialization sink " +
		"without a sorted-keys idiom in between",
	Run: runMaporder,
}

// maporderSinkMethods are method names that commit bytes in call
// order regardless of receiver type.
var maporderSinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Emit": true, "Render": true,
}

func runMaporder(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if sink := findSink(info, rs.Body); sink != "" {
				pass.Reportf(rs.Pos(),
					"map iteration reaches serialization sink %s; "+
						"iterate a sorted key slice instead (map order is randomized)",
					sink)
			}
			return true
		})
	}
}

// findSink returns a description of the first serialization sink
// called inside body, or "".
func findSink(info *types.Info, body *ast.BlockStmt) (sink string) {
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObject(info, call)
		if obj == nil {
			return true
		}
		if name, ok := isPkgLevelUse(obj, "fmt"); ok {
			switch name {
			case "Fprint", "Fprintf", "Fprintln":
				sink = "fmt." + name
			}
			return true
		}
		if name, ok := isPkgLevelUse(obj, "encoding/json"); ok {
			switch name {
			case "Marshal", "MarshalIndent":
				sink = "json." + name
			}
			return true
		}
		if recv := methodRecvNamed(obj); recv != nil {
			if namedIs(recv, "encoding/json", "Encoder") && obj.Name() == "Encode" {
				sink = "(*json.Encoder).Encode"
				return true
			}
			if maporderSinkMethods[obj.Name()] {
				sink = recv.Obj().Name() + "." + obj.Name()
			}
		}
		return true
	})
	return sink
}
