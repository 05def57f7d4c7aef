package main

type pipe struct{}

func (pipe) RecvReply() ([]byte, error) { return nil, nil } // want

func main() {}
