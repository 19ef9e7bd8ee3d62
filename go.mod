module graphsurge

go 1.24
