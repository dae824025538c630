-- perfbase embedded database dump
CREATE TABLE t (a INTEGER, s TEXT);
INSERT INTO t VALUES (3, 'three'), (4, 'four'), (5, 'five');
