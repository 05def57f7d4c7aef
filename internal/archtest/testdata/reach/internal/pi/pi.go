package pi

func Infer() {}
