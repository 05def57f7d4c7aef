package main

import driver "pasnet/internal/pi"

func main() { driver.NewEngine(nil) } // want
