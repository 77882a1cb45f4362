package iql

import "fmt"

// ValueDTO is a JSON-encodable representation of a Value, used by the
// persistence layers (wrapper snapshots, session stores) to serialise
// extents losslessly: integers keep their full int64 precision instead
// of passing through float64, and Void/Any survive as tagged constants.
type ValueDTO struct {
	Kind  string     `json:"kind"`
	Bool  bool       `json:"bool,omitempty"`
	Int   int64      `json:"int,omitempty"`
	Float float64    `json:"float,omitempty"`
	Str   string     `json:"str,omitempty"`
	Items []ValueDTO `json:"items,omitempty"`
}

// EncodeValue converts a Value to its DTO form.
func EncodeValue(v Value) ValueDTO {
	d := ValueDTO{Kind: v.Kind.String()}
	switch v.Kind {
	case KindBool:
		d.Bool = v.B()
	case KindInt:
		d.Int = v.I()
	case KindFloat:
		d.Float = v.F()
	case KindString:
		d.Str = v.S()
	case KindTuple, KindBag:
		items := v.Items()
		d.Items = make([]ValueDTO, len(items))
		for i, it := range items {
			d.Items[i] = EncodeValue(it)
		}
	}
	return d
}

// DecodeValue converts a DTO back to a Value. Unknown kinds are an
// error, never a panic, so malformed snapshots fail loading cleanly.
func DecodeValue(d ValueDTO) (Value, error) {
	switch d.Kind {
	case "null":
		return Null(), nil
	case "bool":
		return Bool(d.Bool), nil
	case "int":
		return Int(d.Int), nil
	case "float":
		return Float(d.Float), nil
	case "string":
		return Str(d.Str), nil
	case "tuple", "bag":
		items := make([]Value, len(d.Items))
		for i, it := range d.Items {
			v, err := DecodeValue(it)
			if err != nil {
				return Value{}, err
			}
			items[i] = v
		}
		if d.Kind == "tuple" {
			return Tuple(items...), nil
		}
		return BagOf(items), nil
	case "Void":
		return Void(), nil
	case "Any":
		return Any(), nil
	}
	return Value{}, fmt.Errorf("iql: unknown value kind %q", d.Kind)
}
