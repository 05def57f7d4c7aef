package ot

func Transfer() {}
