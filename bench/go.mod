module geostat/bench

go 1.22

require geostat v0.0.0

replace geostat => ../
