package b

func Twice[T any](v T) [2]T { return [2]T{v, v} }
